package formats

import (
	"repro/internal/matrix"
)

// ELLLayout selects the storage order of the ELLPACK arrays.
type ELLLayout uint8

const (
	// RowMajor stores each row's Width slots contiguously — the natural
	// layout for one-CPU-thread-per-row traversal.
	RowMajor ELLLayout = iota
	// ColMajor stores slot j of every row contiguously — the layout GPU
	// kernels want, because adjacent threads (rows) then load adjacent
	// memory (coalescing). Comparing the two layouts is one of the
	// suite's ablation benchmarks.
	ColMajor
)

func (l ELLLayout) String() string {
	if l == ColMajor {
		return "colmajor"
	}
	return "rowmajor"
}

// ELL is the ELLPACK format: every row stores exactly Width (column, value)
// slots, where Width is the maximum number of nonzeros in any row. Shorter
// rows are padded with explicit zeros. The thesis pads "in proximity to the
// nonzero elements to introduce spatial locality" (§2.2): padding slots
// repeat the row's last real column index (or the row index clamped into
// range for empty rows) with value 0, so padded loads touch memory the real
// entries already brought into cache.
type ELL[T matrix.Float] struct {
	Rows, Cols int
	Width      int
	Layout     ELLLayout
	// ColIdx and Vals have Rows*Width entries laid out per Layout.
	ColIdx []int32
	Vals   []T
}

// ELLFromCOO converts a COO matrix to ELLPACK in the requested layout.
// The ELL width is the maximum row degree; matrices with one very long row
// (a high "column ratio" in the thesis' metrics) therefore pad heavily,
// which is exactly the degradation the benchmark measures.
func ELLFromCOO[T matrix.Float](m *matrix.COO[T], layout ELLLayout) *ELL[T] {
	m.SortRowMajor()
	counts := m.RowCounts()
	width := 0
	for _, c := range counts {
		if c > width {
			width = c
		}
	}
	e := &ELL[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		Width:  width,
		Layout: layout,
		ColIdx: make([]int32, m.Rows*width),
		Vals:   make([]T, m.Rows*width),
	}
	if width == 0 {
		return e
	}
	// Walk the sorted triplets row by row, then pad.
	p := 0
	for i := 0; i < m.Rows; i++ {
		slot := 0
		lastCol := int32(min(i, m.Cols-1)) // padding column for empty rows
		for p < m.NNZ() && int(m.RowIdx[p]) == i {
			idx := e.index(i, slot)
			e.ColIdx[idx] = m.ColIdx[p]
			e.Vals[idx] = m.Vals[p]
			lastCol = m.ColIdx[p]
			slot++
			p++
		}
		for ; slot < width; slot++ {
			idx := e.index(i, slot)
			e.ColIdx[idx] = lastCol
			// Vals already zero.
		}
	}
	return e
}

// index maps (row, slot) to the flat array position for the layout.
func (e *ELL[T]) index(row, slot int) int {
	if e.Layout == ColMajor {
		return slot*e.Rows + row
	}
	return row*e.Width + slot
}

// At returns the (column, value) stored at the given row and slot.
func (e *ELL[T]) At(row, slot int) (int32, T) {
	idx := e.index(row, slot)
	return e.ColIdx[idx], e.Vals[idx]
}

// Relayout returns a copy of e converted to the requested layout (or e
// itself when the layout already matches).
func (e *ELL[T]) Relayout(layout ELLLayout) *ELL[T] {
	if layout == e.Layout {
		return e
	}
	out := &ELL[T]{
		Rows:   e.Rows,
		Cols:   e.Cols,
		Width:  e.Width,
		Layout: layout,
		ColIdx: make([]int32, len(e.ColIdx)),
		Vals:   make([]T, len(e.Vals)),
	}
	for i := 0; i < e.Rows; i++ {
		for s := 0; s < e.Width; s++ {
			src := e.index(i, s)
			dst := out.index(i, s)
			out.ColIdx[dst] = e.ColIdx[src]
			out.Vals[dst] = e.Vals[src]
		}
	}
	return out
}

// ToCOO expands the real (nonzero) entries back into sorted COO form.
// Padding slots are dropped, so a round trip through ELL preserves the
// logical matrix whenever the source had no explicit zero values.
func (e *ELL[T]) ToCOO() *matrix.COO[T] {
	m := matrix.NewCOO[T](e.Rows, e.Cols, e.NNZ())
	for i := 0; i < e.Rows; i++ {
		for s := 0; s < e.Width; s++ {
			col, v := e.At(i, s)
			if v != 0 {
				m.Append(int32(i), col, v)
			}
		}
	}
	m.SortRowMajor()
	return m
}

// FormatName is the short name used in reports.
func (e *ELL[T]) FormatName() string { return "ell" }

// Dims returns the logical matrix dimensions.
func (e *ELL[T]) Dims() (int, int) { return e.Rows, e.Cols }

// NNZ reports the number of logical nonzeros; it counts nonzero stored values, excluding padding.
func (e *ELL[T]) NNZ() int {
	n := 0
	for _, v := range e.Vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// Stored reports the stored value slots; every slot, padded or not, is stored.
func (e *ELL[T]) Stored() int { return len(e.Vals) }

// Bytes implements Sparse.
func (e *ELL[T]) Bytes() int {
	var z T
	return len(e.ColIdx)*4 + len(e.Vals)*valueSize(z)
}

// Validate checks structural invariants: array lengths matching Rows*Width
// and in-range column indices.
func (e *ELL[T]) Validate() error {
	want := e.Rows * e.Width
	if len(e.ColIdx) != want || len(e.Vals) != want {
		return invalidf("ell: arrays have %d/%d entries, want %d",
			len(e.ColIdx), len(e.Vals), want)
	}
	for i, col := range e.ColIdx {
		if col < 0 || int(col) >= e.Cols {
			if e.Cols == 0 && col == 0 {
				continue
			}
			return invalidf("ell: slot %d column %d outside [0, %d)", i, col, e.Cols)
		}
	}
	return nil
}
