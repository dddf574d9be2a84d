// Package kernels implements the sparse-dense matrix multiplication (SpMM)
// kernels of the benchmark suite as a lattice: one exported entry per format
// (COO, CSR, ELL, BCSR, BELL, SELLCS) taking a Spec that says how the call
// executes — serial or parallel, which partition, which machinery,
// cancellable or not — plus Multiply, which dispatches a prepared float64
// matrix to its entry. Every entry and every Spec is bitwise equal to the
// serial CSR kernel: each range of a parallel run owns whole C rows, and
// each C element sums its products in ascending column order. The one
// ablation the thesis discusses, Study 9's inner-loop parallel BCSR, sits
// outside the lattice as a named function under the same contract. The
// SpMV the thesis lists as future work (§6.3.4) is Multiply at k = 1;
// MultiplyVec is that call for a caller holding plain vectors.
//
// Every SpMM kernel computes C[:, :k] = A × B[:, :k] for a sparse m×n A and
// dense n×kb B (kb >= k), overwriting the first k columns of C. The "k loop"
// bound is the runtime parameter Study 4 sweeps. The thesis' manual
// optimisations (Study 9) hard-code it with C++ templates so the compiler
// can unroll and vectorise; here every format's k loop is the row entry
// (matrix.AxpyRow, or its strided and block-lane forms, which read pairs
// where the format stores them), unrolled and vectorised by hand for any k.
// Each range function hands the row entry one C row with all k columns — its
// pairs in one run, or, when B outgrows the L2 and the slab rule says so,
// in one run per column slab (slab.go) — and the row entry's own tile
// ladder (128, 32, 16, 4 and 1 columns) walks them;
// no range function splits k into panels, so there is one k loop per format
// and Study 9 measures what a compile-time k would still remove.
package kernels

import (
	"errors"
	"fmt"

	"repro/internal/matrix"
)

// ErrShape is returned when operand dimensions are inconsistent.
var ErrShape = errors.New("kernels: operand shape mismatch")

// cancelStride is how many rows (or block rows, slices, triplets)
// a kernel running under a context processes between checks: small enough
// to cancel within microseconds of work, large enough that the atomic load
// disappears in the row loop's cost.
const cancelStride = 1024

// cRow is the first k columns of row i of c: the row the row entry writes
// whole, all k columns in its own tile ladder.
func cRow[T matrix.Float](c *matrix.Dense[T], i, k int) []T {
	o := i * c.Stride
	return c.Data[o : o+k : o+k]
}

// SpMMFlops returns the floating-point operation count of one SpMM with the
// given nonzero count and k: one multiply and one add per (nonzero, column)
// pair. This is the basis of every MFLOPS figure the suite reports,
// matching the thesis' metric (§4.3).
func SpMMFlops(nnz, k int) float64 { return 2 * float64(nnz) * float64(k) }

// checkSpMM validates C[:, :k] = A(ar×ac) × B[:, :k].
func checkSpMM[T matrix.Float](ar, ac int, b, c *matrix.Dense[T], k int) error {
	switch {
	case k < 0:
		return fmt.Errorf("%w: negative k=%d", ErrShape, k)
	case b.Rows != ac:
		return fmt.Errorf("%w: A is %dx%d but B is %dx%d", ErrShape, ar, ac, b.Rows, b.Cols)
	case k > b.Cols:
		return fmt.Errorf("%w: k=%d exceeds the %d columns of B", ErrShape, k, b.Cols)
	case c.Rows != ar:
		return fmt.Errorf("%w: A has %d rows but C has %d", ErrShape, ar, c.Rows)
	case k > c.Cols:
		return fmt.Errorf("%w: k=%d exceeds C's %d columns", ErrShape, k, c.Cols)
	}
	return nil
}

// zeroK zeroes the first k columns of every row of c.
func zeroK[T matrix.Float](c *matrix.Dense[T], k int) {
	for i := 0; i < c.Rows; i++ {
		clear(c.Data[i*c.Stride : i*c.Stride+k])
	}
}

// GEMM computes the dense product C = A × B naively. It exists for
// small-scale verification in tests; the benchmark suite itself verifies
// against the COO kernel, as the thesis does (§4.3: a pure dense
// verification "took too long").
func GEMM[T matrix.Float](a, b, c *matrix.Dense[T]) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("%w: GEMM %dx%d * %dx%d -> %dx%d",
			ErrShape, a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for l, av := range arow {
			if av == 0 {
				continue
			}
			matrix.Axpy(crow, b.Row(l), av, c.Cols)
		}
	}
	return nil
}
