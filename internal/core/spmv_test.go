package core

import (
	"errors"
	"slices"
	"testing"
)

func TestSpMVRegistry(t *testing.T) {
	names := SpMVNames()
	golden := []string{"bcsr-spmv-omp", "bcsr-spmv-serial", "coo-spmv-omp", "coo-spmv-serial",
		"csr-spmv-omp", "csr-spmv-serial", "ell-spmv-omp", "ell-spmv-serial"}
	if !slices.Equal(names, golden) {
		t.Fatalf("spmv registry names changed:\n got %v\nwant %v", names, golden)
	}
	for _, n := range names {
		if _, err := NewSpMV(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := NewSpMV("dense-spmv"); !errors.Is(err, ErrUnknownKernel) {
		t.Fatal("unknown spmv kernel accepted")
	}
}

func TestRunSpMVAllKernelsVerified(t *testing.T) {
	a := testCOO(21, 80, 80, 500)
	p := smallParams()
	for _, name := range SpMVNames() {
		k, err := NewSpMV(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunSpMV(k, a, "test", p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Verified {
			t.Fatalf("%s: not verified", name)
		}
		if r.K != 1 {
			t.Fatalf("%s: spmv result must report k=1, got %d", name, r.K)
		}
		if r.MFLOPS <= 0 || r.FormatBytes <= 0 {
			t.Fatalf("%s: nonsense result %+v", name, r)
		}
	}
}

func TestSpMVCalculateBeforePrepare(t *testing.T) {
	k, err := NewSpMV("csr-spmv-serial")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 4)
	y := make([]float64, 4)
	if err := k.CalculateVec(x, y, smallParams()); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("CalculateVec before Prepare: %v", err)
	}
}

func TestRunSpMVRejectsBadInput(t *testing.T) {
	a := testCOO(22, 10, 10, 20)
	k, _ := NewSpMV("coo-spmv-serial")
	p := smallParams()
	p.Reps = 0
	if _, err := RunSpMV(k, a, "t", p); err == nil {
		t.Fatal("bad params accepted")
	}
	a.ColIdx[0] = 99
	if _, err := RunSpMV(k, a, "t", smallParams()); err == nil {
		t.Fatal("invalid matrix accepted")
	}
}

func TestRunSpMVDeterministicResult(t *testing.T) {
	a := testCOO(23, 60, 60, 300)
	p := smallParams()
	k1, _ := NewSpMV("ell-spmv-omp")
	r1, err := RunSpMV(k1, a, "t", p)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := NewSpMV("ell-spmv-omp")
	r2, err := RunSpMV(k2, a, "t", p)
	if err != nil {
		t.Fatal(err)
	}
	// Timing varies; the verified numerics and metadata must not.
	if r1.Kernel != r2.Kernel || r1.MaxAbsDiff != r2.MaxAbsDiff || r1.FormatBytes != r2.FormatBytes {
		t.Fatalf("results differ: %+v vs %+v", r1, r2)
	}
}
