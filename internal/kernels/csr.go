package kernels

import (
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// CSR computes C[:, :k] = A × B[:, :k] with A in CSR form, executed as s
// says: rows are the unit of every partition, so each Spec — static (the
// thesis' OpenMP "parallel for" over rows), nonzero-balanced from the
// memoized prefix-sum splits, on any pool, cancellable — is bitwise
// identical to the serial kernel.
func CSR[T matrix.Float](a *formats.CSR[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowCSR, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	var bounds []int
	if s.Threads > 1 {
		if s.Schedule == ScheduleBalanced {
			bounds = a.BalancedBounds(s.Threads)
		}
		obsNonzeros.Add(int64(a.NNZ()))
		recordCSRImbalance(a.RowPtr, a.Rows, s.Threads, bounds)
	}
	return walk(s, rowCSR, a.Rows, bounds, csrRows[T]{a, b, c, k}, a.Cols, k, slabbed(a, a.Cols, k))
}

// csrRows is CSR's range function: a CSR row is already the run of (col,
// val) pairs the row entry takes, and its pairs in a slab are a run too. The
// row entry writes the row from its first run, an empty row's as zeros, and
// continues it from each later one.
type csrRows[T matrix.Float] struct {
	a    *formats.CSR[T]
	b, c *matrix.Dense[T]
	k    int
}

func (r csrRows[T]) rows(lo, hi int, sl slab) {
	a := r.a
	for i := lo; i < hi; i++ {
		o, n := int(a.RowPtr[i]), int(a.RowPtr[i+1]-a.RowPtr[i])
		if p, q := sl.cut(a.ColIdx, o, n, 1); sl.visits(p, q, n) {
			matrix.AxpyRow(cRow(r.c, i, r.k), r.b, a.ColIdx[o+p:o+q], a.Vals[o+p:o+q], p > 0)
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
	if err := run(s, rowCSC, c.Rows, nil, parallel.Func(func(lo, hi, _ int) { zeroKRows(c, k, lo, hi) })); err != nil {
		return err
	}
	return run(s, rowCSC, a.Cols, nil, parallel.Func(func(lo, hi, _ int) { cscCols(a, b, c, k, lo, hi) }))
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
	if err := checkSpMM(a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	replicated(c, k, a.Cols, threads, func(into *matrix.Dense[T], lo, hi int) {
		cscCols(a, b, into, k, lo, hi)
	})
	return nil
}
