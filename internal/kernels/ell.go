package kernels

import (
	"repro/internal/formats"
	"repro/internal/matrix"
)

// ELL computes C[:, :k] = A × B[:, :k] with A in ELLPACK form, executed as
// s says. Both storage layouts are supported. The kernels are ELLPACK-R: a
// row is walked to its stored length, so padding costs footprint and
// conversion time but no work per multiply, and a stored zero is multiplied
// as CSR multiplies it. The static row partition is balanced by rows, not by
// nonzeros.
func ELL[T matrix.Float](a *formats.ELL[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	return walk(s, rowELL, a.Rows, nil, ellRows[T]{a, b, c, k}, a.Cols, k, slabbed(a, a.Cols, k))
}

// ellRows is ELL's range function: it walks each row to its stored length.
// A row-major row is already the run of (col, val) pairs the row entry
// takes, as a CSR row is; a column-major row is the same pairs Rows slots
// apart, which the row entry reads in place. Either way a slab's pairs are
// the row's slots from p to q, the row entry writes the row from its first
// run and continues it from each later one; an empty row, in either layout,
// is the empty run, which writes zeros.
type ellRows[T matrix.Float] struct {
	a    *formats.ELL[T]
	b, c *matrix.Dense[T]
	k    int
}

func (r ellRows[T]) rows(lo, hi int, sl slab) {
	a := r.a
	step := 1
	if a.Layout == formats.ColMajor {
		step = a.Rows
	}
	for i := lo; i < hi; i++ {
		n := int(a.RowLen[i])
		base := i * a.Width
		if step > 1 {
			base = i
		}
		p, q := sl.cut(a.ColIdx, base, n, step)
		if !sl.visits(p, q, n) {
			continue
		}
		crow := cRow(r.c, i, r.k)
		switch {
		case p == q:
			matrix.AxpyRow(crow, r.b, nil, nil, false)
		case step > 1:
			matrix.AxpyRowStrided(crow, r.b, a.ColIdx[base+p*step:], a.Vals[base+p*step:], q-p, step, p > 0)
		default:
			matrix.AxpyRow(crow, r.b, a.ColIdx[base+p:base+q], a.Vals[base+p:base+q], p > 0)
		}
	}
}
