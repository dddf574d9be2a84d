package kernels

import (
	"repro/internal/formats"
	"repro/internal/matrix"
)

// BELL computes C[:, :k] = A × B[:, :k] with A in Blocked-ELL form,
// executed as s says. A block row is walked to its stored length, so the
// padded block slots behind it cost footprint, not work; zeros inside a
// stored block are fill and are skipped by value, as in BCSR.
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
	blk := blocks[T]{rows: a.Rows, br: a.BR, bc: a.BC, colIdx: a.ColIdx, vals: a.Vals}
	for bri := lo; bri < hi; bri++ {
		blk.rowPanel(bri, bri*a.Width, bri*a.Width+int(a.RowLen[bri]), b, c, 0, k)
	}
}

// SELLCS computes C[:, :k] = A × B[:, :k] with A in SELL-C-σ form,
// executed as s says. Slices are walked slot-major (the layout order);
// output rows are un-permuted on the fly via the stored permutation. Slices
// own disjoint output rows (the permutation maps each row to exactly one
// lane), so they parallelise without synchronisation; balanced scheduling
// equalises stored elements per worker, read off SlicePtr (padding included:
// a proxy for the real ones the lanes walk).
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

// sellSlices walks each slice lane by lane: a lane is one C row, cleared
// and handed to the row entry to its stored length, C slots apart, with its
// un-permuted row looked up once.
func sellSlices[T matrix.Float](a *formats.SELLCS[T], b, c *matrix.Dense[T], k, lo, hi int) {
	for sl := lo; sl < hi; sl++ {
		base := int(a.SlicePtr[sl])
		laneLim := min(a.C, a.Rows-sl*a.C)
		for l := 0; l < laneLim; l++ {
			crow := panelRow(c, int(a.Perm[sl*a.C+l]), 0, k)
			clear(crow)
			if n := int(a.RowLen[sl*a.C+l]); n > 0 {
				matrix.AxpyRowStrided(crow, b, 0, a.ColIdx[base+l:], a.Vals[base+l:], n, a.C)
			}
		}
	}
}
