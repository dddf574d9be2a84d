package core

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

// gpuNames are the registry's eight GPU kernels.
func gpuNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, n := range Names() {
		k, err := New(n, gpuOptions(t))
		if err != nil {
			t.Fatal(err)
		}
		if k.Mode() == GPU {
			names = append(names, n)
		}
	}
	if len(names) != 8 {
		t.Fatalf("%d GPU kernels, want 8: %v", len(names), names)
	}
	return names
}

// TestGPUStoredZeroTimesNonFinite: the GPU kernels multiply a stored zero,
// as csr-serial does, so 0·Inf and 0·NaN reach C (DESIGN.md section 5).
// ELL's padding slots are not entries and are never multiplied, even where
// their column meets a non-finite B row; BCSR and BELL skip in-block zeros
// as fill, so they are held to csr-serial on A without its stored zeros.
func TestGPUStoredZeroTimesNonFinite(t *testing.T) {
	// Rows: 0 has a stored zero meeting B's +Inf row 1; 1 is short (ELL
	// pads it with column 0); 2 is empty and ELL pads it with column 2,
	// B's NaN row; 3 is the widest, with a stored zero meeting B's -Inf
	// row 3; 5 is short and ELL pads it with column 1, +Inf.
	entries := []struct {
		r, c int32
		v    float64
	}{
		{0, 0, 1}, {0, 1, 0}, {1, 0, 2}, {3, 0, 1}, {3, 3, 0}, {3, 4, 1}, {4, 4, 5}, {5, 1, 1},
	}
	a := matrix.NewCOO[float64](6, 5, len(entries))
	nonzero := matrix.NewCOO[float64](6, 5, len(entries))
	for _, e := range entries {
		a.Append(e.r, e.c, e.v)
		if e.v != 0 {
			nonzero.Append(e.r, e.c, e.v)
		}
	}
	for _, k := range []int{1, 40} {
		b := matrix.NewDenseRand[float64](5, k, 2)
		for j := 0; j < k; j++ {
			b.Set(1, j, math.Inf(1))
			b.Set(2, j, math.NaN())
			b.Set(3, j, math.Inf(-1))
		}
		p := DefaultParams()
		p.K = k
		want := calculate(t, "csr-serial", a, b, p)
		wantNonzero := calculate(t, "csr-serial", nonzero, b, p)
		for _, name := range gpuNames(t) {
			for _, block := range []int{1, 3} {
				p.BlockSize = block
				ref := want
				if name == "bcsr-gpu" || name == "bell-gpu" {
					ref = wantNonzero
				}
				got := calculate(t, name, a, b, p)
				if i, j, ok := firstMismatch(got, ref, k); !ok {
					t.Errorf("%s block=%d k=%d: C[%d][%d] = %v, want %v (csr-serial)", name, block, k, i, j, got.At(i, j), ref.At(i, j))
				}
			}
		}
	}
}

// firstMismatch finds the first element of got[:, :k] whose class differs
// from want's; ok is true when there is none.
func firstMismatch(got, want *matrix.Dense[float64], k int) (i, j int, ok bool) {
	for i = 0; i < want.Rows; i++ {
		for j = 0; j < k; j++ {
			if !sameClass(got.At(i, j), want.At(i, j)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// sameClass reports whether g and w are both NaN, the same infinity, or
// finite and within 1e-9.
func sameClass(g, w float64) bool {
	switch {
	case math.IsNaN(w) || math.IsNaN(g):
		return math.IsNaN(w) && math.IsNaN(g)
	case math.IsInf(w, 0) || math.IsInf(g, 0):
		return g == w
	}
	return math.Abs(g-w) <= 1e-9*math.Max(1, math.Abs(w))
}

// calculate runs the named kernel once on a copy of a and returns C.
func calculate(t *testing.T, name string, a *matrix.COO[float64], b *matrix.Dense[float64], p Params) *matrix.Dense[float64] {
	t.Helper()
	kern, err := New(name, gpuOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := kern.Prepare(a.Clone(), p); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c := matrix.NewDense[float64](a.Rows, p.K)
	if err := kern.Calculate(b, c, p); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// TestGPUTransposePaysItsLaunch: csr-gpu-t's launch result includes the
// on-device transpose of B (Study 8's rule), so its warps are the SpMM
// grid's (one thread per row of A) plus the transpose grid's (one thread
// per row of B).
func TestGPUTransposePaysItsLaunch(t *testing.T) {
	a := testCOO(3, 300, 600, 2000)
	p := DefaultParams()
	p.K = 16
	kern, err := New("csr-gpu-t", gpuOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := kern.Prepare(a, p); err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](a.Cols, p.K, 1)
	if err := kern.Calculate(b, matrix.NewDense[float64](a.Rows, p.K), p); err != nil {
		t.Fatal(err)
	}
	warps := func(threads int) int { return (threads + 255) / 256 * 8 }
	if got, want := kern.(*gpuKernel).last.Stats.Warps, warps(a.Rows)+warps(a.Cols); got != want {
		t.Fatalf("csr-gpu-t ran %d warps, want %d (SpMM %d + transpose %d)", got, want, warps(a.Rows), warps(a.Cols))
	}
}
