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
	if err := check(rowELL, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	if s.direct() {
		ellRows(a, b, c, k, 0, a.Rows)
		return nil
	}
	return run(s, rowELL, a.Rows, nil, func(lo, hi, _ int) {
		ellRows(a, b, c, k, lo, hi)
	})
}

// ellRows walks each of rows [lo, hi) to its stored length. A row-major row
// is already the run of (col, val) pairs the row entry takes, as a CSR row
// is; a column-major row is the same pairs Rows slots apart, which the row
// entry reads in place. Either way the row entry writes the row whole; an
// empty row, in either layout, is the empty run, which writes zeros.
func ellRows[T matrix.Float](a *formats.ELL[T], b, c *matrix.Dense[T], k, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := cRow(c, i, k)
		n := int(a.RowLen[i])
		if a.Layout == formats.ColMajor && n > 0 {
			matrix.AxpyRowStrided(crow, b, a.ColIdx[i:], a.Vals[i:], n, a.Rows)
		} else {
			base := i * a.Width
			matrix.AxpyRow(crow, b, a.ColIdx[base:base+n], a.Vals[base:base+n])
		}
	}
}
