package formats

import (
	"repro/internal/matrix"
)

// CSR is the compressed sparse row format: COO with the row indices
// compressed into a rows+1 prefix-sum array.
type CSR[T matrix.Float] struct {
	Rows, Cols int
	// RowPtr has length Rows+1; row i's entries live at
	// ColIdx[RowPtr[i]:RowPtr[i+1]] and Vals[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int32
	ColIdx []int32
	Vals   []T

	balanced partitionCache // memoized nnz-balanced row splits
}

// CSRFromCOO converts a COO matrix to CSR. The input is sorted row-major
// first (a no-op when already sorted); duplicates are preserved, matching
// the additive semantics of the multiply kernels.
func CSRFromCOO[T matrix.Float](m *matrix.COO[T]) *CSR[T] {
	m.SortRowMajor()
	nnz := m.NNZ()
	c := &CSR[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int32, m.Rows+1),
		ColIdx: make([]int32, nnz),
		Vals:   make([]T, nnz),
	}
	for _, r := range m.RowIdx {
		c.RowPtr[r+1]++
	}
	for i := 0; i < m.Rows; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	copy(c.ColIdx, m.ColIdx)
	copy(c.Vals, m.Vals)
	return c
}

// ToCOO expands the CSR matrix back into row-major sorted COO form.
func (c *CSR[T]) ToCOO() *matrix.COO[T] {
	m := matrix.NewCOO[T](c.Rows, c.Cols, c.NNZ())
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			m.Append(int32(i), c.ColIdx[p], c.Vals[p])
		}
	}
	return m
}

// FormatName is the short name used in reports.
func (c *CSR[T]) FormatName() string { return "csr" }

// Dims returns the logical matrix dimensions.
func (c *CSR[T]) Dims() (int, int) { return c.Rows, c.Cols }

// NNZ reports the number of logical nonzeros.
func (c *CSR[T]) NNZ() int { return len(c.Vals) }

// Stored reports the stored value slots; CSR stores exactly the nonzeros.
func (c *CSR[T]) Stored() int { return len(c.Vals) }

// Bytes implements Sparse.
func (c *CSR[T]) Bytes() int {
	var z T
	return len(c.RowPtr)*4 + len(c.ColIdx)*4 + len(c.Vals)*valueSize(z)
}

// RowNNZ returns the number of stored entries in row i.
func (c *CSR[T]) RowNNZ(i int) int { return int(c.RowPtr[i+1] - c.RowPtr[i]) }

// Validate checks the CSR structural invariants: monotone row pointers
// spanning the value array and in-range column indices.
func (c *CSR[T]) Validate() error {
	if len(c.RowPtr) != c.Rows+1 {
		return invalidf("csr: RowPtr length %d, want %d", len(c.RowPtr), c.Rows+1)
	}
	if len(c.ColIdx) != len(c.Vals) {
		return invalidf("csr: ColIdx length %d != Vals length %d", len(c.ColIdx), len(c.Vals))
	}
	if c.RowPtr[0] != 0 || int(c.RowPtr[c.Rows]) != len(c.Vals) {
		return invalidf("csr: RowPtr endpoints [%d, %d], want [0, %d]",
			c.RowPtr[0], c.RowPtr[c.Rows], len(c.Vals))
	}
	for i := 0; i < c.Rows; i++ {
		if c.RowPtr[i+1] < c.RowPtr[i] {
			return invalidf("csr: RowPtr not monotone at row %d", i)
		}
	}
	for p, col := range c.ColIdx {
		if col < 0 || int(col) >= c.Cols {
			return invalidf("csr: entry %d column %d outside [0, %d)", p, col, c.Cols)
		}
	}
	return nil
}

// CSC is the compressed sparse column format — the transpose-oriented twin
// of CSR. The related work the thesis surveys ([17]) studies SpMM on CSC;
// the suite provides it so a CSC kernel can be benchmarked alongside.
type CSC[T matrix.Float] struct {
	Rows, Cols int
	ColPtr     []int32
	RowIdx     []int32
	Vals       []T
}

// CSCFromCOO converts a COO matrix to CSC by transposing, compressing, and
// relabelling.
func CSCFromCOO[T matrix.Float](m *matrix.COO[T]) *CSC[T] {
	t := m.Transpose()
	csr := CSRFromCOO(t)
	return &CSC[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		ColPtr: csr.RowPtr,
		RowIdx: csr.ColIdx,
		Vals:   csr.Vals,
	}
}

// FormatName is the short name used in reports.
func (c *CSC[T]) FormatName() string { return "csc" }

// Dims returns the logical matrix dimensions.
func (c *CSC[T]) Dims() (int, int) { return c.Rows, c.Cols }

// NNZ reports the number of logical nonzeros.
func (c *CSC[T]) NNZ() int { return len(c.Vals) }

// Stored reports the stored value slots, padding included.
func (c *CSC[T]) Stored() int { return len(c.Vals) }

// Bytes implements Sparse.
func (c *CSC[T]) Bytes() int {
	var z T
	return len(c.ColPtr)*4 + len(c.RowIdx)*4 + len(c.Vals)*valueSize(z)
}

// ToCOO expands the CSC matrix into row-major sorted COO form.
func (c *CSC[T]) ToCOO() *matrix.COO[T] {
	m := matrix.NewCOO[T](c.Rows, c.Cols, c.NNZ())
	for j := 0; j < c.Cols; j++ {
		for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
			m.Append(c.RowIdx[p], int32(j), c.Vals[p])
		}
	}
	m.SortRowMajor()
	return m
}

func valueSize[T matrix.Float](T) int {
	var z T
	switch any(z).(type) {
	case float32:
		return 4
	default:
		return 8
	}
}
