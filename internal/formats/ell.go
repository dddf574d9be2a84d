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
// entries already brought into cache. RowLen makes it ELLPACK-R (Kreutzer
// et al.): the padding is stored and counted, never executed.
type ELL[T matrix.Float] struct {
	Rows, Cols int
	Width      int
	Layout     ELLLayout
	// ColIdx and Vals have Rows*Width entries laid out per Layout.
	ColIdx []int32
	Vals   []T
	// RowLen[i] is how many of row i's slots are real: the only statement
	// of which slots are padding (a real slot may hold a stored zero).
	RowLen []int32
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
		RowLen: make([]int32, m.Rows),
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
		e.RowLen[i] = int32(slot)
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
		RowLen: e.RowLen, // never written after conversion
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

// ToCOO expands the real slots back into sorted COO form. Padding is what
// lies at or past RowLen, so a stored zero survives the round trip.
func (e *ELL[T]) ToCOO() *matrix.COO[T] {
	m := matrix.NewCOO[T](e.Rows, e.Cols, e.NNZ())
	for i := 0; i < e.Rows; i++ {
		for s := 0; s < int(e.RowLen[i]); s++ {
			col, v := e.At(i, s)
			m.Append(int32(i), col, v)
		}
	}
	m.SortRowMajor()
	return m
}

// FormatName is the short name used in reports.
func (e *ELL[T]) FormatName() string { return "ell" }

// Dims returns the logical matrix dimensions.
func (e *ELL[T]) Dims() (int, int) { return e.Rows, e.Cols }

// NNZ reports the number of logical nonzeros: the real slots, padding excluded.
func (e *ELL[T]) NNZ() int { return sumLens(e.RowLen) }

// Stored reports the stored value slots; every slot, padded or not, is stored.
func (e *ELL[T]) Stored() int { return len(e.Vals) }

// Bytes implements Sparse.
func (e *ELL[T]) Bytes() int {
	var z T
	return len(e.ColIdx)*4 + len(e.Vals)*valueSize(z) + len(e.RowLen)*4
}

// Validate checks structural invariants: array lengths matching Rows*Width,
// in-range column indices, and row lengths that reach Width somewhere and
// leave behind them only the padding ELLFromCOO writes.
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
	return checkLens("ell", e.RowLen, e.Rows, e.Width,
		func(i int) int32 { return int32(min(i, e.Cols-1)) },
		func(i, s int) (int32, bool) { col, v := e.At(i, s); return col, v == 0 })
}
