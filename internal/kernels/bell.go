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
	if err := checkSpMM(a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	rg := blocks[T]{m: a.Rows, br: a.BR, bc: a.BC, colIdx: a.ColIdx, vals: a.Vals, width: a.Width, rowLen: a.RowLen, b: b, c: c, k: k}
	return walk(s, rowBELL, a.BlockRows, nil, rg, a.Cols, k, slabbed(a, a.Cols, k))
}

// SELLCS computes C[:, :k] = A × B[:, :k] with A in SELL-C-σ form,
// executed as s says. Slices are walked slot-major (the layout order);
// output rows are un-permuted on the fly via the stored permutation. Slices
// own disjoint output rows (the permutation maps each row to exactly one
// lane), so they parallelise without synchronisation; balanced scheduling
// equalises stored elements per worker, read off SlicePtr (padding included:
// a proxy for the real ones the lanes walk).
func SELLCS[T matrix.Float](a *formats.SELLCS[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	var bounds []int
	if s.Threads > 1 && s.Schedule == ScheduleBalanced {
		bounds = a.BalancedBounds(s.Threads)
	}
	return walk(s, rowSELLCS, a.NumSlices(), bounds, sellSlices[T]{a, b, c, k}, a.Cols, k, slabbed(a, a.Cols, k))
}

// sellSlices is SELL-C-σ's range function, over slices: it walks each slice
// lane by lane. A lane is one C row, handed to the row entry to its stored
// length, C slots apart, with its un-permuted row looked up once; a slab's
// pairs are the lane's slots from p to q. The row entry writes the row from
// its first run and continues it from each later one; an empty lane is the
// empty run, which writes zeros.
type sellSlices[T matrix.Float] struct {
	a    *formats.SELLCS[T]
	b, c *matrix.Dense[T]
	k    int
}

func (r sellSlices[T]) rows(lo, hi int, sl slab) {
	a := r.a
	for s := lo; s < hi; s++ {
		base := int(a.SlicePtr[s])
		laneLim := min(a.C, a.Rows-s*a.C)
		for l := 0; l < laneLim; l++ {
			n := int(a.RowLen[s*a.C+l])
			p, q := sl.cut(a.ColIdx, base+l, n, a.C)
			if !sl.visits(p, q, n) {
				continue
			}
			crow := cRow(r.c, int(a.Perm[s*a.C+l]), r.k)
			if p < q {
				o := base + l + p*a.C
				matrix.AxpyRowStrided(crow, r.b, a.ColIdx[o:], a.Vals[o:], q-p, a.C, p > 0)
			} else {
				matrix.AxpyRow(crow, r.b, nil, nil, false)
			}
		}
	}
}
