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

// bcsrBlockRows processes block rows [lo, hi). A trailing padded fringe
// (rows/cols beyond the logical dimensions) is guarded explicitly; interior
// padding is plain zero values. The dense-column loop is k-tiled like
// csrRows so wide-k runs keep each B panel cache-hot across the band.
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
	blk := blocks[T]{rows: a.Rows, cols: a.Cols, br: a.BR, bc: a.BC, colIdx: a.ColIdx, vals: a.Vals}
	var g [gatherLanes]rowBuf[T]
	for bri := lo; bri < hi; bri++ {
		blk.rowPanel(&g, bri, int(a.RowPtr[bri]), int(a.RowPtr[bri+1]), b, c, j0, jw)
	}
}

// blocks is what BCSR and BELL share: per stored slot one block-column
// index and br*bc row-major values. They differ only in which slots a block
// row owns.
type blocks[T matrix.Float] struct {
	rows, cols, br, bc int
	colIdx             []int32
	vals               []T
}

// gatherLanes is how many C rows of a block row are in flight at once, one
// rowBuf each; a taller block is walked in bands of this many lanes.
const gatherLanes = 16

// rowPanel accumulates columns [j0, j0+jw) of the C rows of block row bri
// from its slots [p, q). Each block is walked once, its lanes' survivors
// going to one rowBuf per C row, so a lane's pairs reach the row entry in
// slot order — the accumulation order of the per-nonzero loop.
func (a blocks[T]) rowPanel(g *[gatherLanes]rowBuf[T], bri, p, q int, b, c *matrix.Dense[T], j0, jw int) {
	rowBase := bri * a.br
	rowLim := min(a.br, a.rows-rowBase)
	for r0 := 0; r0 < rowLim; r0 += gatherLanes {
		lanes := min(gatherLanes, rowLim-r0)
		for r := 0; r < lanes; r++ {
			clear(panelRow(c, rowBase+r0+r, j0, jw))
		}
		for s := p; s < q; s++ {
			colBase := int(a.colIdx[s]) * a.bc
			colLim := min(a.bc, a.cols-colBase)
			blk := a.vals[s*a.br*a.bc : (s+1)*a.br*a.bc]
			for r := 0; r < lanes; r++ {
				for cc, v := range blk[(r0+r)*a.bc : (r0+r)*a.bc+colLim] {
					if v == 0 {
						continue
					}
					if g[r].push(int32(colBase+cc), v) {
						g[r].flush(panelRow(c, rowBase+r0+r, j0, jw), b, j0)
					}
				}
			}
		}
		for r := 0; r < lanes; r++ {
			g[r].flush(panelRow(c, rowBase+r0+r, j0, jw), b, j0)
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
