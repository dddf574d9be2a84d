package matrix

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format sparse matrix: parallel arrays of (row, col,
// value) triplets. It is the suite's base format, matching the thesis design
// in which every other format is built from the COO representation (the
// on-disk MatrixMarket layout is itself COO-like).
//
// Indices are int32: the thesis' future work (§6.3.5) observes that 32-bit
// indices suffice for the matrices of interest and halve the footprint.
type COO[T Float] struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Vals       []T

	reuse reuseMemo // Reuse's scan
}

// NewCOO returns an empty rows×cols COO matrix with capacity for nnz
// triplets.
func NewCOO[T Float](rows, cols, nnz int) *COO[T] {
	return &COO[T]{
		Rows:   rows,
		Cols:   cols,
		RowIdx: make([]int32, 0, nnz),
		ColIdx: make([]int32, 0, nnz),
		Vals:   make([]T, 0, nnz),
	}
}

// NNZ reports the number of stored (structurally nonzero) entries.
func (m *COO[T]) NNZ() int { return len(m.Vals) }

// Append adds one triplet. It does not check for duplicates; call Validate
// or Dedup if the source may contain them.
func (m *COO[T]) Append(r, c int32, v T) {
	m.RowIdx = append(m.RowIdx, r)
	m.ColIdx = append(m.ColIdx, c)
	m.Vals = append(m.Vals, v)
}

// Validate checks structural invariants: consistent triplet array lengths
// and all indices in range. It does not require sortedness.
func (m *COO[T]) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("%w: negative dimensions %dx%d", ErrInvalid, m.Rows, m.Cols)
	}
	if len(m.RowIdx) != len(m.Vals) || len(m.ColIdx) != len(m.Vals) {
		return fmt.Errorf("%w: triplet arrays disagree: rows=%d cols=%d vals=%d",
			ErrInvalid, len(m.RowIdx), len(m.ColIdx), len(m.Vals))
	}
	for i := range m.Vals {
		r, c := m.RowIdx[i], m.ColIdx[i]
		if r < 0 || int(r) >= m.Rows || c < 0 || int(c) >= m.Cols {
			return fmt.Errorf("%w: entry %d at (%d,%d) outside %dx%d",
				ErrInvalid, i, r, c, m.Rows, m.Cols)
		}
	}
	return nil
}

// IsSortedRowMajor reports whether triplets are sorted by (row, col).
func (m *COO[T]) IsSortedRowMajor() bool {
	for i := 1; i < len(m.Vals); i++ {
		if m.RowIdx[i] < m.RowIdx[i-1] ||
			(m.RowIdx[i] == m.RowIdx[i-1] && m.ColIdx[i] < m.ColIdx[i-1]) {
			return false
		}
	}
	return true
}

// SortRowMajor sorts triplets by (row, col). Format converters require
// row-major order; the parallel COO kernel requires it to partition work at
// row boundaries.
func (m *COO[T]) SortRowMajor() {
	if m.IsSortedRowMajor() {
		return
	}
	s := cooSorter[T]{m}
	sort.Sort(s)
	m.forgetReuse()
}

// forgetReuse drops the memoized Reuse scan after the triplets moved.
func (m *COO[T]) forgetReuse() {
	m.reuse.mu.Lock()
	m.reuse.n = 0
	m.reuse.mu.Unlock()
}

type cooSorter[T Float] struct{ m *COO[T] }

func (s cooSorter[T]) Len() int { return len(s.m.Vals) }
func (s cooSorter[T]) Less(i, j int) bool {
	m := s.m
	if m.RowIdx[i] != m.RowIdx[j] {
		return m.RowIdx[i] < m.RowIdx[j]
	}
	return m.ColIdx[i] < m.ColIdx[j]
}
func (s cooSorter[T]) Swap(i, j int) {
	m := s.m
	m.RowIdx[i], m.RowIdx[j] = m.RowIdx[j], m.RowIdx[i]
	m.ColIdx[i], m.ColIdx[j] = m.ColIdx[j], m.ColIdx[i]
	m.Vals[i], m.Vals[j] = m.Vals[j], m.Vals[i]
}

// Dedup sorts the matrix row-major and sums duplicate (row, col) entries in
// place. It returns the number of duplicates merged.
func (m *COO[T]) Dedup() int {
	m.SortRowMajor()
	if len(m.Vals) == 0 {
		return 0
	}
	w := 0
	for i := 1; i < len(m.Vals); i++ {
		if m.RowIdx[i] == m.RowIdx[w] && m.ColIdx[i] == m.ColIdx[w] {
			m.Vals[w] += m.Vals[i]
			continue
		}
		// Until the first duplicate every entry is already in place.
		if w++; w != i {
			m.RowIdx[w] = m.RowIdx[i]
			m.ColIdx[w] = m.ColIdx[i]
			m.Vals[w] = m.Vals[i]
		}
	}
	merged := len(m.Vals) - (w + 1)
	m.RowIdx = m.RowIdx[:w+1]
	m.ColIdx = m.ColIdx[:w+1]
	m.Vals = m.Vals[:w+1]
	return merged
}

// ToDense expands m into a dense matrix, summing duplicates.
func (m *COO[T]) ToDense() *Dense[T] {
	d := NewDense[T](m.Rows, m.Cols)
	for i := range m.Vals {
		d.Data[int(m.RowIdx[i])*d.Stride+int(m.ColIdx[i])] += m.Vals[i]
	}
	return d
}

// FromDense builds a COO matrix from the nonzero entries of d, in row-major
// order.
func FromDense[T Float](d *Dense[T]) *COO[T] {
	m := NewCOO[T](d.Rows, d.Cols, 0)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v != 0 {
				m.Append(int32(i), int32(j), v)
			}
		}
	}
	return m
}

// Clone returns a deep copy of m.
func (m *COO[T]) Clone() *COO[T] {
	c := NewCOO[T](m.Rows, m.Cols, m.NNZ())
	c.RowIdx = append(c.RowIdx, m.RowIdx...)
	c.ColIdx = append(c.ColIdx, m.ColIdx...)
	c.Vals = append(c.Vals, m.Vals...)
	return c
}

// RowCounts returns, for each row, the number of stored entries in it.
func (m *COO[T]) RowCounts() []int {
	counts := make([]int, m.Rows)
	for _, r := range m.RowIdx {
		counts[r]++
	}
	return counts
}

// Bytes reports the memory footprint of the triplet storage in bytes.
func (m *COO[T]) Bytes() int {
	var z T
	return len(m.RowIdx)*4 + len(m.ColIdx)*4 + len(m.Vals)*int(sizeOf(z))
}
