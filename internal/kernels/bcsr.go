package kernels

import (
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// BCSR computes C[:, :k] = A × B[:, :k] with A in BCSR form, executed as s
// says. The kernel walks whole blocks, including their padding zeros — the
// extra work a badly chosen block size costs. Parallelising at block-row
// granularity is what the blocked format buys: each worker owns whole C
// row-bands, and balanced scheduling equalises stored blocks per worker.
// Under InnerTransB, b is Bᵀ.
func BCSR[T matrix.Float](a *formats.BCSR[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowBCSR, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	inner := s.Inner
	if s.direct() {
		bcsrRange(a, b, c, k, inner, 0, a.BlockRows)
		return nil
	}
	var bounds []int
	if s.Threads > 1 && s.Schedule == ScheduleBalanced {
		bounds = a.BalancedBounds(s.Threads)
	}
	return run(s, rowBCSR, a.BlockRows, bounds, func(lo, hi, _ int) {
		bcsrRange(a, b, c, k, inner, lo, hi)
	})
}

// bcsrRange runs the range function inner selects over block rows [lo, hi).
func bcsrRange[T matrix.Float](a *formats.BCSR[T], b, c *matrix.Dense[T], k int, inner Inner, lo, hi int) {
	if inner == InnerTransB {
		bcsrBlockRowsT(a, b, c, k, lo, hi)
	} else {
		bcsrBlockRows(a, b, c, k, lo, hi)
	}
}

// bcsrBlockRows processes block rows [lo, hi). The padded fringe of the
// trailing block row and column holds only zeros (Validate), which the row
// entry skips as fill; the trailing block row's lanes stop at Rows. The
// dense-column loop is k-tiled like csrRows so wide-k runs keep each B panel
// cache-hot across the band.
func bcsrBlockRows[T matrix.Float](a *formats.BCSR[T], b, c *matrix.Dense[T], k, lo, hi int) {
	if k <= tileK {
		bcsrBlockRowsPanel(a, b, c, 0, k, lo, hi)
		return
	}
	for j0 := 0; j0 < k; j0 += tileK {
		bcsrBlockRowsPanel(a, b, c, j0, min(tileK, k-j0), lo, hi)
	}
}

func bcsrBlockRowsPanel[T matrix.Float](a *formats.BCSR[T], b, c *matrix.Dense[T], j0, jw, lo, hi int) {
	blk := blocks[T]{rows: a.Rows, br: a.BR, bc: a.BC, colIdx: a.ColIdx, vals: a.Vals}
	for bri := lo; bri < hi; bri++ {
		blk.rowPanel(bri, int(a.RowPtr[bri]), int(a.RowPtr[bri+1]), b, c, j0, jw)
	}
}

// blocks is what BCSR and BELL share: per stored slot one block-column
// index and br*bc row-major values. They differ only in which slots a block
// row owns.
type blocks[T matrix.Float] struct {
	rows, br, bc int
	colIdx       []int32
	vals         []T
}

// rowPanel writes columns [j0, j0+jw) of the C rows of block row bri from
// its slots [p, q). Each lane is one C row, handed to the row entry as a
// block lane over all of the slots, which reads the lane's values in place
// and skips the zeros among them as fill; so a lane's pairs arrive in slot
// order, then column order. The row entry writes the lane's tile of C whole;
// a block row with no slots is the empty run, which writes zeros.
func (a blocks[T]) rowPanel(bri, p, q int, b, c *matrix.Dense[T], j0, jw int) {
	rowBase := bri * a.br
	cols, vals := a.colIdx[p:q], a.vals[p*a.br*a.bc:q*a.br*a.bc]
	for r := range min(a.br, a.rows-rowBase) {
		crow := panelRow(c, rowBase+r, j0, jw)
		if p < q {
			matrix.AxpyRowBlock(crow, b, j0, cols, vals[r*a.bc:], a.bc, a.br*a.bc)
		} else {
			matrix.AxpyRow(crow, b, j0, nil, nil)
		}
	}
}

// bcsrBlockRowsT is the transposed-B block-row loop: bt is the kb×n
// transpose of B.
func bcsrBlockRowsT[T matrix.Float](a *formats.BCSR[T], bt, c *matrix.Dense[T], k, lo, hi int) {
	br, bc := a.BR, a.BC
	for bri := lo; bri < hi; bri++ {
		rowBase := bri * br
		rowLim := min(br, a.Rows-rowBase)
		for r := 0; r < rowLim; r++ {
			clear(c.Data[(rowBase+r)*c.Stride : (rowBase+r)*c.Stride+k])
		}
		for p := a.RowPtr[bri]; p < a.RowPtr[bri+1]; p++ {
			colBase := int(a.ColIdx[p]) * bc
			colLim := min(bc, a.Cols-colBase)
			blk := a.Block(int(p))
			for r := 0; r < rowLim; r++ {
				crow := c.Data[(rowBase+r)*c.Stride : (rowBase+r)*c.Stride+k]
				for cc := 0; cc < colLim; cc++ {
					v := blk[r*bc+cc]
					if v == 0 {
						continue
					}
					col := colBase + cc
					for j := range crow {
						crow[j] += v * bt.Data[j*bt.Stride+col]
					}
				}
			}
		}
	}
}

// BCSRParallelInner is the Study 9 footnote variant, an ablation outside
// the lattice: it parallelises the *inner* (within-block-row) loop instead
// of the block-row loop. The thesis notes this change "clearly made the
// overall performance worse"; the suite keeps it so the regression is
// reproducible.
func BCSRParallelInner[T matrix.Float](a *formats.BCSR[T], b, c *matrix.Dense[T], k, threads int) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k, false); err != nil {
		return err
	}
	zeroK(c, k)
	br, bc := a.BR, a.BC
	for bri := 0; bri < a.BlockRows; bri++ {
		rowBase := bri * br
		rowLim := min(br, a.Rows-rowBase)
		nblk := int(a.RowPtr[bri+1] - a.RowPtr[bri])
		if nblk == 0 {
			continue
		}
		first := int(a.RowPtr[bri])
		// Each worker accumulates disjoint C rows only if it owns whole
		// rows of the block; parallelising over blocks within the row
		// races on C, so workers split the *row* dimension of the block
		// instead — tiny chunks, heavy fork/join per block row. That is
		// the pathology the thesis observed.
		parallel.For(rowLim, threads, func(rlo, rhi, _ int) {
			for p := first; p < first+nblk; p++ {
				colBase := int(a.ColIdx[p]) * bc
				colLim := min(bc, a.Cols-colBase)
				blk := a.Block(p)
				for r := rlo; r < rhi; r++ {
					crow := c.Data[(rowBase+r)*c.Stride : (rowBase+r)*c.Stride+k]
					for cc := 0; cc < colLim; cc++ {
						v := blk[r*bc+cc]
						if v == 0 {
							continue
						}
						matrix.Axpy(crow, b.Data[(colBase+cc)*b.Stride:], v, k)
					}
				}
			}
		})
	}
	return nil
}
