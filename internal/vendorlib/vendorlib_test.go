package vendorlib

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/formats"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

func testMatrix(seed int64, rows, cols, nnz int) *matrix.COO[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[float64](rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
	}
	m.Dedup()
	return m
}

func newDevice(t *testing.T) *gpusim.Device {
	t.Helper()
	d, err := gpusim.NewDevice(gpusim.TestDevice(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func reference(t *testing.T, coo *matrix.COO[float64], b *matrix.Dense[float64], k int) *matrix.Dense[float64] {
	t.Helper()
	want := matrix.NewDense[float64](coo.Rows, k)
	bk, _ := b.View(0, 0, b.Rows, k)
	if err := kernels.GEMM(coo.ToDense(), bk.Clone(), want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestVendorKernelsMatchReference: both tuned kernels agree with a dense
// GEMM at every k, an empty row included.
func TestVendorKernelsMatchReference(t *testing.T) {
	for _, k := range []int{0, 8, 32, 50, 96} {
		src := testMatrix(int64(k), 80, 60, 700)
		coo := matrix.NewCOO[float64](src.Rows, src.Cols, src.NNZ())
		for p := range src.Vals {
			if src.RowIdx[p] != 7 {
				coo.Append(src.RowIdx[p], src.ColIdx[p], src.Vals[p])
			}
		}
		b := matrix.NewDenseRand[float64](60, 128, 7)
		want := reference(t, coo, b, k)
		d := newDevice(t)
		for label, a := range map[string]formats.Sparse{"coo": coo, "csr": formats.CSRFromCOO(coo)} {
			c := matrix.NewDenseRand[float64](80, 128, 3) // stale values must be overwritten
			if _, err := SpMM(d, a, b, c, k); err != nil {
				t.Fatal(err)
			}
			view, _ := c.View(0, 0, 80, k)
			if !view.Clone().EqualTol(want, 1e-9) {
				t.Fatalf("k=%d: vendor %s mismatch", k, label)
			}
		}
	}
}

func TestVendorCOOHandlesRowsSpanningSegments(t *testing.T) {
	// One row with 1000 nonzeros spans many 128-entry segments; the
	// atomic flushes must accumulate, not overwrite.
	m := matrix.NewCOO[float64](4, 1200, 1000)
	for j := 0; j < 1000; j++ {
		m.Append(1, int32(j), 1)
	}
	b := matrix.NewDense[float64](1200, 32)
	for i := range b.Data {
		b.Data[i] = 1
	}
	c := matrix.NewDense[float64](4, 32)
	d := newDevice(t)
	if _, err := SpMM(d, m, b, c, 32); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 32; j++ {
		if c.At(1, j) != 1000 {
			t.Fatalf("C[1][%d] = %v, want 1000", j, c.At(1, j))
		}
		if c.At(0, j) != 0 || c.At(2, j) != 0 {
			t.Fatal("untouched rows must stay zero")
		}
	}
}

func TestVendorBeatsNaiveOnTypicalMatrix(t *testing.T) {
	// A FEM-like matrix with k=128: the tuned kernels' coalesced B access
	// must beat the naive offload kernels — the Study 7 headline.
	coo := testMatrix(42, 512, 512, 8000)
	csr := formats.CSRFromCOO(coo)
	b := matrix.NewDenseRand[float64](512, 128, 9)
	c := matrix.NewDense[float64](512, 128)
	d := newDevice(t)

	naive, err := gpusim.SpMM(d, csr, b, c, 128, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := SpMM(d, csr, b, c, 128)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Seconds >= naive.Seconds {
		t.Fatalf("vendor CSR (%.3gs) should beat naive (%.3gs)", tuned.Seconds, naive.Seconds)
	}
	if tuned.Stats.CoalescingEfficiency() <= naive.Stats.CoalescingEfficiency() {
		t.Fatalf("vendor coalescing %.3f should beat naive %.3f",
			tuned.Stats.CoalescingEfficiency(), naive.Stats.CoalescingEfficiency())
	}

	naiveCOO, err := gpusim.SpMM(d, coo, b, c, 128, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	tunedCOO, err := SpMM(d, coo, b, c, 128)
	if err != nil {
		t.Fatal(err)
	}
	if tunedCOO.Seconds >= naiveCOO.Seconds {
		t.Fatalf("vendor COO (%.3gs) should beat naive (%.3gs)", tunedCOO.Seconds, naiveCOO.Seconds)
	}
}

// TestVendorShapeErrors: mismatched operands are a gpusim.ErrLaunch that
// names the shapes, and a device too small is an OOM that leaks nothing.
func TestVendorShapeErrors(t *testing.T) {
	coo := testMatrix(1, 10, 12, 20)
	csr := formats.CSRFromCOO(coo)
	d := newDevice(t)
	for _, tc := range []struct {
		label string
		a     formats.Sparse
		b, c  *matrix.Dense[float64]
		k     int
		want  string
	}{
		{"oversized k", csr, matrix.NewDense[float64](12, 8), matrix.NewDense[float64](10, 8), 16, "k=16 with B 12x8, C 10x8"},
		{"mismatched B", coo, matrix.NewDense[float64](11, 8), matrix.NewDense[float64](10, 8), 8, "A is 10x12, B 11x8"},
		{"mismatched C", csr, matrix.NewDense[float64](12, 8), matrix.NewDense[float64](11, 8), 8, "C 11x8"},
	} {
		_, err := SpMM(d, tc.a, tc.b, tc.c, tc.k)
		if !errors.Is(err, gpusim.ErrLaunch) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrLaunch naming %q", tc.label, err, tc.want)
		}
	}
	small, err := gpusim.NewDevice(gpusim.TestDevice(256))
	if err != nil {
		t.Fatal(err)
	}
	for label, a := range map[string]formats.Sparse{"coo": coo, "csr": csr} {
		b, c := matrix.NewDense[float64](12, 8), matrix.NewDense[float64](10, 8)
		if _, err := SpMM(small, a, b, c, 8); !errors.Is(err, gpusim.ErrOutOfMemory) || small.Allocated() != 0 {
			t.Errorf("%s: got %v with %d bytes held, want an OOM that leaks nothing", label, err, small.Allocated())
		}
	}
}

// TestVendorUnsupported: vendorlib has kernels for COO and CSR only; every
// other format is a kernels.ErrSpec, refused before anything is allocated.
func TestVendorUnsupported(t *testing.T) {
	coo := testMatrix(2, 16, 16, 40)
	b, c := matrix.NewDense[float64](16, 4), matrix.NewDense[float64](16, 4)
	d := newDevice(t)
	for _, name := range []string{"ell", "bcsr", "bell", "sellcs"} {
		a, err := formats.FromCOO(name, coo, formats.Params{Block: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SpMM(d, a, b, c, 4); !errors.Is(err, kernels.ErrSpec) || d.Allocated() != 0 {
			t.Errorf("%s: got %v with %d bytes held, want kernels.ErrSpec", name, err, d.Allocated())
		}
	}
}
