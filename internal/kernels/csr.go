package kernels

import (
	"repro/internal/formats"
	"repro/internal/matrix"
)

// CSR computes C[:, :k] = A × B[:, :k] with A in CSR form, executed as s
// says: rows are the unit of every partition, so each Spec — static (the
// thesis' OpenMP "parallel for" over rows), nonzero-balanced from the
// memoized prefix-sum splits, dynamic, pooled, cancellable — is bitwise
// identical to the serial kernel. Under InnerTransB, b is Bᵀ.
func CSR[T matrix.Float](a *formats.CSR[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowCSR, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	inner := s.Inner
	if s.direct() {
		csrRange(a, b, c, k, inner, 0, a.Rows)
		return nil
	}
	var bounds []int
	if s.Threads > 1 {
		if s.Schedule == ScheduleBalanced {
			bounds = a.BalancedBounds(s.Threads)
		}
		obsNonzeros.Add(int64(a.NNZ()))
		recordCSRImbalance(a.RowPtr, a.Rows, s.Threads, bounds)
	}
	return run(s, rowCSR, a.Rows, bounds, func(lo, hi, _ int) {
		csrRange(a, b, c, k, inner, lo, hi)
	})
}

// csrRange runs the range function inner selects over rows [lo, hi): one
// branch per range, never per nonzero.
func csrRange[T matrix.Float](a *formats.CSR[T], b, c *matrix.Dense[T], k int, inner Inner, lo, hi int) {
	if inner == InnerTransB {
		csrRowsT(a, b, c, k, lo, hi)
	} else {
		csrRows(a, b, c, k, lo, hi)
	}
}

// csrRows runs the CSR row loop over rows [lo, hi), processing B in panels
// of tileK columns so a panel stays cache-hot across the whole row band
// (see tileK). For k <= tileK this is a single panel — the classic loop.
func csrRows[T matrix.Float](a *formats.CSR[T], b, c *matrix.Dense[T], k, lo, hi int) {
	if k <= tileK {
		csrRowsPanel(a, b, c, 0, k, lo, hi)
		return
	}
	for j0 := 0; j0 < k; j0 += tileK {
		csrRowsPanel(a, b, c, j0, min(tileK, k-j0), lo, hi)
	}
}

// csrRowsPanel writes columns [j0, j0+jw) of C for rows [lo, hi): a CSR
// row is already the run of (col, val) pairs the row entry takes, and the
// row entry writes its tile of C whole, an empty row's as zeros.
func csrRowsPanel[T matrix.Float](a *formats.CSR[T], b, c *matrix.Dense[T], j0, jw, lo, hi int) {
	for i := lo; i < hi; i++ {
		p, q := a.RowPtr[i], a.RowPtr[i+1]
		matrix.AxpyRow(panelRow(c, i, j0, jw), b, j0, a.ColIdx[p:q], a.Vals[p:q])
	}
}

// csrRowsT is the transposed-B row loop: bt is the kb×n transpose of B.
func csrRowsT[T matrix.Float](a *formats.CSR[T], bt, c *matrix.Dense[T], k, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := c.Data[i*c.Stride : i*c.Stride+k]
		clear(crow)
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			col := int(a.ColIdx[p])
			v := a.Vals[p]
			for j := range crow {
				crow[j] += v * bt.Data[j*bt.Stride+col]
			}
		}
	}
}

// CSC computes C[:, :k] = A × B[:, :k] with A in CSC form. Column
// orientation means every stored entry scatters into C rows, so unlike CSR
// the loop has no range decomposition that owns C rows: the lattice row is
// serial only (the related work's CSC SpMM systems partition by column
// panels instead), and CSCParallel is the replicated-accumulator ablation.
func CSC[T matrix.Float](a *formats.CSC[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowCSC, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	if s.direct() {
		zeroK(c, k)
		cscCols(a, b, c, k, 0, a.Cols)
		return nil
	}
	if err := run(s, rowCSC, c.Rows, nil, func(lo, hi, _ int) { zeroKRows(c, k, lo, hi) }); err != nil {
		return err
	}
	return run(s, rowCSC, a.Cols, nil, func(lo, hi, _ int) { cscCols(a, b, c, k, lo, hi) })
}

// cscCols scatters columns [lo, hi) of A into C.
func cscCols[T matrix.Float](a *formats.CSC[T], b, c *matrix.Dense[T], k, lo, hi int) {
	for j := lo; j < hi; j++ {
		brow := b.Data[j*b.Stride:]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			matrix.Axpy(c.Data[int(a.RowIdx[p])*c.Stride:], brow, a.Vals[p], k)
		}
	}
}

// CSCParallel is the ablation outside the lattice: the columns are split
// over workers, each accumulating into a private copy of C (see replicated)
// — the strategy column orientation forces, since all workers scatter into
// all C rows.
func CSCParallel[T matrix.Float](a *formats.CSC[T], b, c *matrix.Dense[T], k, threads int) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k, false); err != nil {
		return err
	}
	replicated(c, k, a.Cols, threads, func(into *matrix.Dense[T], lo, hi int) {
		cscCols(a, b, into, k, lo, hi)
	})
	return nil
}
