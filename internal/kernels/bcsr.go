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
func BCSR[T matrix.Float](a *formats.BCSR[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	var bounds []int
	if s.Threads > 1 && s.Schedule == ScheduleBalanced {
		bounds = a.BalancedBounds(s.Threads)
	}
	rg := blocks[T]{m: a.Rows, br: a.BR, bc: a.BC, colIdx: a.ColIdx, vals: a.Vals, rowPtr: a.RowPtr, b: b, c: c, k: k}
	return walk(s, rowBCSR, a.BlockRows, bounds, rg, a.Cols, k, slabbed(a, a.Cols, k))
}

// blocks is the range function BCSR and BELL share, over block rows: per
// stored slot one block-column index and br*bc row-major values. They
// differ only in which slots a block row owns: those from BCSR's rowPtr, or
// the first rowLen of BELL's width slots. The padded fringe of BCSR's
// trailing block row and column holds only zeros (Validate), which the row
// entry skips as fill; the trailing block row's lanes stop at m, A's row
// count.
type blocks[T matrix.Float] struct {
	m, br, bc int
	colIdx    []int32
	vals      []T
	rowPtr    []int32 // BCSR
	width     int     // BELL, with rowLen
	rowLen    []int32
	b, c      *matrix.Dense[T]
	k         int
}

func (a blocks[T]) rows(lo, hi int, sl slab) {
	bsl := sl.blocks(a.bc)
	for bri := lo; bri < hi; bri++ {
		if a.rowLen == nil {
			a.blockRow(bri, int(a.rowPtr[bri]), int(a.rowPtr[bri+1]), bsl)
		} else {
			a.blockRow(bri, bri*a.width, bri*a.width+int(a.rowLen[bri]), bsl)
		}
	}
}

// blockRow writes, or continues, the C rows of block row bri from those of
// its slots [p, q) whose block columns lie in sl. Each lane is one C row,
// handed to the row entry as a block lane over the slots, which reads the
// lane's values in place and skips the zeros among them as fill; so a
// lane's pairs arrive in slot order, then column order. The row entry
// writes the lane's row of C from its first run and continues it from each
// later one; a block row with no slots is the empty run, which writes zeros.
func (a blocks[T]) blockRow(bri, p, q int, sl slab) {
	s0, s1 := sl.cut(a.colIdx, p, q-p, 1)
	if !sl.visits(s0, s1, q-p) {
		return
	}
	sz := a.br * a.bc
	rowBase := bri * a.br
	cols, vals := a.colIdx[p+s0:p+s1], a.vals[(p+s0)*sz:(p+s1)*sz]
	for r := range min(a.br, a.m-rowBase) {
		crow := cRow(a.c, rowBase+r, a.k)
		if s0 < s1 {
			matrix.AxpyRowBlock(crow, a.b, cols, vals[r*a.bc:], a.bc, sz, s0 > 0)
		} else {
			matrix.AxpyRow(crow, a.b, nil, nil, false)
		}
	}
}

// BCSRParallelInner is the Study 9 footnote variant, an ablation outside
// the lattice: it parallelises the *inner* (within-block-row) loop instead
// of the block-row loop. The thesis notes this change "clearly made the
// overall performance worse"; the suite keeps it so the regression is
// reproducible. Its regions run on the process pool.
func BCSRParallelInner[T matrix.Float](a *formats.BCSR[T], b, c *matrix.Dense[T], k, threads int) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k); err != nil {
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
		parallel.Default().Run(rowLim, threads, func(rlo, rhi, _ int) {
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
