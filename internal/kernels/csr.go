package kernels

import (
	"repro/internal/formats"
	"repro/internal/matrix"
)

// CSR computes C[:, :k] = A × B[:, :k] with A in CSR form, executed as s
// says: rows are the unit of every partition, so each Spec — static (the
// thesis' OpenMP "parallel for" over rows), nonzero-balanced from the
// memoized prefix-sum splits, on any pool, cancellable — is bitwise
// identical to the serial kernel.
func CSR[T matrix.Float](a *formats.CSR[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k); err != nil {
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
