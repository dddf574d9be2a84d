// Package kernels implements the sparse-dense matrix multiplication (SpMM)
// kernels of the benchmark suite as a lattice: one exported entry per format
// (COO, CSR, CSC, ELL, BCSR, BELL, SELLCS) taking a Spec that says how the
// call executes — serial or parallel, which partition, which machinery,
// cancellable or not, and which of the format's inner loops (k-tiled or
// transposed-B) — plus Multiply, which dispatches a prepared float64 matrix
// to its entry. Three ablations the thesis discusses sit outside the
// lattice as named functions. The SpMV the thesis lists as future work
// (§6.3.4) is Multiply at k = 1; MultiplyVec is that call for a caller
// holding plain vectors.
//
// Every SpMM kernel computes C[:, :k] = A × B[:, :k] for a sparse m×n A and
// dense n×kb B (kb >= k), overwriting the first k columns of C. The "k loop"
// bound is the runtime parameter Study 4 sweeps. The thesis' manual
// optimisations (Study 9) hard-code it with C++ templates so the compiler
// can unroll and vectorise; here every format's k loop is the row entry
// (matrix.AxpyRow, or its strided and block-lane forms, which read pairs
// where the format stores them), unrolled and vectorised by hand for any k,
// so there is one k loop per format and Study 9 measures what a
// compile-time k would still remove.
package kernels

import (
	"errors"
	"fmt"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// ErrShape is returned when operand dimensions are inconsistent.
var ErrShape = errors.New("kernels: operand shape mismatch")

// cancelStride is how many rows (or block rows, slices, triplets, columns)
// a kernel running under a context processes between checks: small enough
// to cancel within microseconds of work, large enough that the atomic load
// disappears in the row loop's cost.
const cancelStride = 1024

// tileK is the dense-column panel width of the k-tiled row loops. Beyond
// this width a row's B traffic no longer fits the L1/L2 working set, so the
// kernels process B in panels of tileK columns, keeping each panel hot
// across a whole row band before moving right. One float64 panel row is
// 1 KiB — 16 cache lines — so a band of A rows reuses it from cache instead
// of streaming all of B per row. Panels only change the j-loop order, never
// the per-element accumulation order over nonzeros, so tiled results are
// bitwise identical to the untiled kernels.
const tileK = 128

// panelRow is columns [j0, j0+jw) of row i of c.
func panelRow[T matrix.Float](c *matrix.Dense[T], i, j0, jw int) []T {
	o := i*c.Stride + j0
	return c.Data[o : o+jw : o+jw]
}

// SpMMFlops returns the floating-point operation count of one SpMM with the
// given nonzero count and k: one multiply and one add per (nonzero, column)
// pair. This is the basis of every MFLOPS figure the suite reports,
// matching the thesis' metric (§4.3).
func SpMMFlops(nnz, k int) float64 { return 2 * float64(nnz) * float64(k) }

// checkSpMM validates C[:, :k] = A(ar×ac) × B[:, :k]. With transposed set,
// b is the kb×n transpose of B.
func checkSpMM[T matrix.Float](ar, ac int, b, c *matrix.Dense[T], k int, transposed bool) error {
	name, bn, bk := "B", b.Rows, b.Cols
	if transposed {
		name, bn, bk = "Bᵀ", b.Cols, b.Rows
	}
	switch {
	case k < 0:
		return fmt.Errorf("%w: negative k=%d", ErrShape, k)
	case bn != ac:
		return fmt.Errorf("%w: A is %dx%d but %s is %dx%d", ErrShape, ar, ac, name, b.Rows, b.Cols)
	case k > bk:
		return fmt.Errorf("%w: k=%d exceeds the %d columns of B (%s is %dx%d)", ErrShape, k, bk, name, b.Rows, b.Cols)
	case c.Rows != ar:
		return fmt.Errorf("%w: A has %d rows but C has %d", ErrShape, ar, c.Rows)
	case k > c.Cols:
		return fmt.Errorf("%w: k=%d exceeds C's %d columns", ErrShape, k, c.Cols)
	}
	return nil
}

// zeroK zeroes the first k columns of every row of c.
func zeroK[T matrix.Float](c *matrix.Dense[T], k int) { zeroKRows(c, k, 0, c.Rows) }

// zeroKRows zeroes the first k columns of rows [lo, hi) of c.
func zeroKRows[T matrix.Float](c *matrix.Dense[T], k, lo, hi int) {
	for i := lo; i < hi; i++ {
		clear(c.Data[i*c.Stride : i*c.Stride+k])
	}
}

// replicated is the scaffolding the two reassociating ablations share: each
// of `threads` static chunks of [0, n) is accumulated into a private m×k
// copy of C, and the copies are then summed into c, parallel over rows —
// both regions on the process pool.
// It costs threads×(m×k) extra memory and a reduction pass whose partial
// sums no longer follow the serial accumulation order.
func replicated[T matrix.Float](c *matrix.Dense[T], k, n, threads int, accumulate func(into *matrix.Dense[T], lo, hi int)) {
	threads = max(1, min(threads, n))
	if threads == 1 {
		zeroK(c, k)
		accumulate(c, 0, n)
		return
	}
	privs := make([]*matrix.Dense[T], threads)
	pool := parallel.Default()
	pool.Run(threads, threads, func(wlo, whi, _ int) {
		for w := wlo; w < whi; w++ {
			privs[w] = matrix.NewDense[T](c.Rows, k)
			lo, hi := parallel.ChunkBounds(n, threads, w)
			accumulate(privs[w], lo, hi)
		}
	})
	pool.Run(c.Rows, threads, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			crow := c.Data[i*c.Stride : i*c.Stride+k]
			clear(crow)
			for _, priv := range privs {
				prow := priv.Data[i*priv.Stride : i*priv.Stride+k]
				for j := range crow {
					crow[j] += prow[j]
				}
			}
		}
	})
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
