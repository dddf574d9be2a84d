package formats

import (
	"slices"

	"repro/internal/matrix"
)

// BELL is the Blocked-ELLPACK format named by the thesis as "halfway
// between ELL and BCSR" (§2.2) and the first future-work target (§6.3.1):
// the matrix is partitioned into BR×BC blocks, and each block row stores the
// same number of blocks — the maximum over all block rows — padded with zero
// blocks. It is, exactly, ELLPACK applied at block granularity.
type BELL[T matrix.Float] struct {
	Rows, Cols           int
	BR, BC               int
	BlockRows, BlockCols int
	// Width is the number of block slots per block row (max blocks in any
	// block row).
	Width int
	// ColIdx has BlockRows*Width block-column indices, row-major by block
	// row; padding slots repeat the block row's last real block column.
	ColIdx []int32
	// Vals has BlockRows*Width dense blocks of BR*BC values each.
	Vals []T
	// RowLen[i] is how many of block row i's slots hold a real block; zeros
	// inside a real block are fill, as in BCSR.
	RowLen []int32
}

// BELLFromCOO converts a COO matrix to Blocked-ELL by building the block
// structure (as BCSR does) and then padding every block row to the widest.
func BELLFromCOO[T matrix.Float](m *matrix.COO[T], br, bc int) (*BELL[T], error) {
	bcsr, err := BCSRFromCOO(m, br, bc)
	if err != nil {
		return nil, err
	}
	width := 0
	for i := 0; i < bcsr.BlockRows; i++ {
		if w := int(bcsr.RowPtr[i+1] - bcsr.RowPtr[i]); w > width {
			width = w
		}
	}
	e := &BELL[T]{
		Rows:      bcsr.Rows,
		Cols:      bcsr.Cols,
		BR:        br,
		BC:        bc,
		BlockRows: bcsr.BlockRows,
		BlockCols: bcsr.BlockCols,
		Width:     width,
		ColIdx:    make([]int32, bcsr.BlockRows*width),
		Vals:      make([]T, bcsr.BlockRows*width*br*bc),
		RowLen:    make([]int32, bcsr.BlockRows),
	}
	blkSize := br * bc
	for i := 0; i < bcsr.BlockRows; i++ {
		slot := 0
		lastCol := int32(min(i, max(e.BlockCols-1, 0)))
		for p := bcsr.RowPtr[i]; p < bcsr.RowPtr[i+1]; p++ {
			dst := (i*width + slot) * blkSize
			copy(e.Vals[dst:dst+blkSize], bcsr.Block(int(p)))
			e.ColIdx[i*width+slot] = bcsr.ColIdx[p]
			lastCol = bcsr.ColIdx[p]
			slot++
		}
		e.RowLen[i] = int32(slot)
		for ; slot < width; slot++ {
			e.ColIdx[i*width+slot] = lastCol
			// Vals already zero.
		}
	}
	return e, nil
}

// BlockAt returns the dense values of the block at block row i, slot s.
func (e *BELL[T]) BlockAt(i, s int) []T {
	sz := e.BR * e.BC
	off := (i*e.Width + s) * sz
	return e.Vals[off : off+sz]
}

// ToCOO expands stored nonzeros back into sorted COO form.
func (e *BELL[T]) ToCOO() *matrix.COO[T] {
	m := matrix.NewCOO[T](e.Rows, e.Cols, e.NNZ())
	for i := 0; i < e.BlockRows; i++ {
		for s := 0; s < int(e.RowLen[i]); s++ {
			bci := int(e.ColIdx[i*e.Width+s])
			blk := e.BlockAt(i, s)
			for r := 0; r < e.BR; r++ {
				row := i*e.BR + r
				if row >= e.Rows {
					break
				}
				for c := 0; c < e.BC; c++ {
					col := bci*e.BC + c
					if col >= e.Cols {
						break
					}
					if v := blk[r*e.BC+c]; v != 0 {
						m.Append(int32(row), int32(col), v)
					}
				}
			}
		}
	}
	m.SortRowMajor()
	return m
}

// FormatName is the short name used in reports.
func (e *BELL[T]) FormatName() string { return "bell" }

// Dims returns the logical matrix dimensions.
func (e *BELL[T]) Dims() (int, int) { return e.Rows, e.Cols }

// NNZ reports the number of logical nonzeros.
func (e *BELL[T]) NNZ() int {
	n := 0
	for _, v := range e.Vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// Stored reports the stored value slots, padding included.
func (e *BELL[T]) Stored() int { return len(e.Vals) }

// Bytes implements Sparse.
func (e *BELL[T]) Bytes() int {
	var z T
	return len(e.ColIdx)*4 + len(e.Vals)*valueSize(z) + len(e.RowLen)*4
}

// Validate checks the BELL structural invariants.
func (e *BELL[T]) Validate() error {
	if e.BR < 1 || e.BC < 1 {
		return invalidBlock(e.BR, e.BC)
	}
	if len(e.ColIdx) != e.BlockRows*e.Width {
		return invalidf("bell: ColIdx length %d, want %d", len(e.ColIdx), e.BlockRows*e.Width)
	}
	if len(e.Vals) != e.BlockRows*e.Width*e.BR*e.BC {
		return invalidf("bell: Vals length %d, want %d", len(e.Vals), e.BlockRows*e.Width*e.BR*e.BC)
	}
	for i, col := range e.ColIdx {
		if col < 0 || (int(col) >= e.BlockCols && e.BlockCols > 0) {
			return invalidf("bell: slot %d block column %d outside [0, %d)", i, col, e.BlockCols)
		}
		if !fringeZero(e.BlockAt(i/e.Width, i%e.Width), i/e.Width, int(col), e.Rows, e.Cols, e.BR, e.BC) {
			return invalidf("bell: slot %d holds a nonzero outside the %dx%d matrix", i, e.Rows, e.Cols)
		}
	}
	return checkLens("bell", e.RowLen, e.BlockRows, e.Width,
		func(i int) int32 { return int32(min(i, max(e.BlockCols-1, 0))) },
		func(i, s int) (int32, bool) {
			return e.ColIdx[i*e.Width+s], !slices.ContainsFunc(e.BlockAt(i, s), func(v T) bool { return v != 0 })
		})
}
