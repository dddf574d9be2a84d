package kernels

import (
	"repro/internal/formats"
	"repro/internal/matrix"
)

// BELL computes C[:, :k] = A × B[:, :k] with A in Blocked-ELL form,
// executed as s says. Every block row walks exactly Width blocks — padded
// block slots hold zero values and are skipped by the value guard, but
// their slots are visited, the same fixed-shape trade-off as scalar
// ELLPACK — so static chunks of block rows are perfectly balanced.
func BELL[T matrix.Float](a *formats.BELL[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowBELL, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	if s.direct() {
		bellBlockRows(a, b, c, k, 0, a.BlockRows)
		return nil
	}
	return run(s, rowBELL, a.BlockRows, nil, func(lo, hi, _ int) {
		bellBlockRows(a, b, c, k, lo, hi)
	})
}

func bellBlockRows[T matrix.Float](a *formats.BELL[T], b, c *matrix.Dense[T], k, lo, hi int) {
	br, bc := a.BR, a.BC
	for bri := lo; bri < hi; bri++ {
		rowBase := bri * br
		rowLim := min(br, a.Rows-rowBase)
		for r := 0; r < rowLim; r++ {
			clear(c.Data[(rowBase+r)*c.Stride : (rowBase+r)*c.Stride+k])
		}
		for s := 0; s < a.Width; s++ {
			colBase := int(a.ColIdx[bri*a.Width+s]) * bc
			colLim := min(bc, a.Cols-colBase)
			blk := a.BlockAt(bri, s)
			for r := 0; r < rowLim; r++ {
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
	}
}

// SELLCS computes C[:, :k] = A × B[:, :k] with A in SELL-C-σ form,
// executed as s says. Slices are walked slot-major (the layout order);
// output rows are un-permuted on the fly via the stored permutation. Slices
// own disjoint output rows (the permutation maps each row to exactly one
// lane), so they parallelise without synchronisation; balanced scheduling
// equalises stored (padded) elements per worker, read off SlicePtr.
func SELLCS[T matrix.Float](a *formats.SELLCS[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowSELLCS, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	if s.direct() {
		sellSlices(a, b, c, k, 0, a.NumSlices())
		return nil
	}
	var bounds []int
	if s.Threads > 1 && s.Schedule == ScheduleBalanced {
		bounds = a.BalancedBounds(s.Threads)
	}
	return run(s, rowSELLCS, a.NumSlices(), bounds, func(lo, hi, _ int) {
		sellSlices(a, b, c, k, lo, hi)
	})
}

func sellSlices[T matrix.Float](a *formats.SELLCS[T], b, c *matrix.Dense[T], k, lo, hi int) {
	for sl := lo; sl < hi; sl++ {
		base := int(a.SlicePtr[sl])
		w := int(a.Width[sl])
		laneLim := min(a.C, a.Rows-sl*a.C)
		for l := 0; l < laneLim; l++ {
			clear(c.Data[int(a.Perm[sl*a.C+l])*c.Stride : int(a.Perm[sl*a.C+l])*c.Stride+k])
		}
		for j := 0; j < w; j++ {
			for l := 0; l < laneLim; l++ {
				idx := base + j*a.C + l
				v := a.Vals[idx]
				if v == 0 {
					continue
				}
				row := int(a.Perm[sl*a.C+l])
				matrix.Axpy(c.Data[row*c.Stride:], b.Data[int(a.ColIdx[idx])*b.Stride:], v, k)
			}
		}
	}
}
