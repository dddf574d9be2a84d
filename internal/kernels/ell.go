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
// nonzeros. Under InnerTransB, b is Bᵀ.
func ELL[T matrix.Float](a *formats.ELL[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowELL, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	inner := s.Inner
	if s.direct() {
		ellRange(a, b, c, k, inner, 0, a.Rows)
		return nil
	}
	return run(s, rowELL, a.Rows, nil, func(lo, hi, _ int) {
		ellRange(a, b, c, k, inner, lo, hi)
	})
}

// ellRange runs the range function inner selects over rows [lo, hi).
func ellRange[T matrix.Float](a *formats.ELL[T], b, c *matrix.Dense[T], k int, inner Inner, lo, hi int) {
	if inner == InnerTransB {
		ellRowsT(a, b, c, k, lo, hi)
	} else {
		ellRows(a, b, c, k, lo, hi)
	}
}

// ellRows runs the ELL row loop over rows [lo, hi), k-tiled like csrRows so
// wide-k runs keep each B panel cache-hot across the row band.
func ellRows[T matrix.Float](a *formats.ELL[T], b, c *matrix.Dense[T], k, lo, hi int) {
	if k <= tileK {
		ellRowsPanel(a, b, c, 0, k, lo, hi)
		return
	}
	for j0 := 0; j0 < k; j0 += tileK {
		ellRowsPanel(a, b, c, j0, min(tileK, k-j0), lo, hi)
	}
}

// ellRowsPanel walks each row to its stored length. A row-major row is
// already the run of (col, val) pairs the row entry takes, as a CSR row is;
// a column-major row is the same pairs Rows slots apart, which the row
// entry reads in place. Either way the row entry writes the row's tile of C
// whole; an empty row, in either layout, is the empty run, which writes
// zeros.
func ellRowsPanel[T matrix.Float](a *formats.ELL[T], b, c *matrix.Dense[T], j0, jw, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := panelRow(c, i, j0, jw)
		n := int(a.RowLen[i])
		if a.Layout == formats.ColMajor && n > 0 {
			matrix.AxpyRowStrided(crow, b, j0, a.ColIdx[i:], a.Vals[i:], n, a.Rows)
		} else {
			base := i * a.Width
			matrix.AxpyRow(crow, b, j0, a.ColIdx[base:base+n], a.Vals[base:base+n])
		}
	}
}

// ellRowsT is the transposed-B row loop: bt is the kb×n transpose of B.
func ellRowsT[T matrix.Float](a *formats.ELL[T], bt, c *matrix.Dense[T], k, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := c.Data[i*c.Stride : i*c.Stride+k]
		clear(crow)
		for s := 0; s < int(a.RowLen[i]); s++ {
			col, v := a.At(i, s)
			for j := range crow {
				crow[j] += v * bt.Data[j*bt.Stride+int(col)]
			}
		}
	}
}
