package gpusim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// spmmCase is one naive kernel SpMM runs: a format of the test matrix and
// the inner loop it runs under.
type spmmCase struct {
	label string
	a     formats.Sparse
	inner kernels.Inner
}

// spmmMatrix is 91×71, so every block shape below leaves a fringe in both
// dimensions; row 5 is empty, and rows 12–23 are empty, which empties a
// whole block row at every block height below.
func spmmMatrix() *matrix.COO[float64] {
	src := testMatrix(31, 91, 71, 800)
	m := matrix.NewCOO[float64](src.Rows, src.Cols, src.NNZ())
	for p := range src.Vals {
		if r := src.RowIdx[p]; r != 5 && (r < 12 || r >= 24) {
			m.Append(r, src.ColIdx[p], src.Vals[p])
		}
	}
	return m
}

// spmmCases are every naive kernel on coo: COO, CSR plain and under Bᵀ,
// ELL in both layouts, and BCSR and BELL at 2×2, 4×4 and 3×5.
func spmmCases(t *testing.T, coo *matrix.COO[float64]) []spmmCase {
	t.Helper()
	csr := formats.CSRFromCOO(coo)
	cases := []spmmCase{
		{"coo", coo, kernels.InnerTiled},
		{"csr", csr, kernels.InnerTiled},
		{"csr-t", csr, kernels.InnerTransB},
		{"ell-rowmajor", formats.ELLFromCOO(coo, formats.RowMajor), kernels.InnerTiled},
		{"ell-colmajor", formats.ELLFromCOO(coo, formats.ColMajor), kernels.InnerTiled},
	}
	for _, bs := range [][2]int{{2, 2}, {4, 4}, {3, 5}} {
		bcsr, err := formats.BCSRFromCOO(coo, bs[0], bs[1])
		if err != nil {
			t.Fatal(err)
		}
		bell, err := formats.BELLFromCOO(coo, bs[0], bs[1])
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			spmmCase{fmt.Sprintf("bcsr-%dx%d", bs[0], bs[1]), bcsr, kernels.InnerTiled},
			spmmCase{fmt.Sprintf("bell-%dx%d", bs[0], bs[1]), bell, kernels.InnerTiled})
	}
	return cases
}

// TestSpMMMatchesReference: every naive kernel agrees with a dense GEMM at
// every k, empty rows and block rows and block fringes included, and the
// transposed-B kernel loses to the plain one.
func TestSpMMMatchesReference(t *testing.T) {
	coo := spmmMatrix()
	b := matrix.NewDenseRand[float64](coo.Cols, 64, 4)
	cases := spmmCases(t, coo)
	for _, k := range []int{0, 8, 32, 40, 48} {
		want := reference(t, coo, b, k)
		seconds := map[string]float64{}
		for _, tc := range cases {
			d := newTestDevice(t)
			c := matrix.NewDenseRand[float64](coo.Rows, 64, 6) // stale values must be overwritten
			res, err := SpMM(d, tc.a, b, c, k, tc.inner)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.label, k, err)
			}
			checkC(t, c, want, k, tc.label)
			seconds[tc.label] = res.Seconds
		}
		if k > 0 && seconds["csr-t"] <= seconds["csr"] {
			t.Errorf("k=%d: transposed GPU kernel (%.3gs) should lose to plain (%.3gs)", k, seconds["csr-t"], seconds["csr"])
		}
	}
}

// TestSpMMOOM: every kernel reports a device too small for its operands and
// leaks no allocation accounting.
func TestSpMMOOM(t *testing.T) {
	coo := testMatrix(3, 60, 60, 400)
	b := matrix.NewDenseRand[float64](60, 16, 1)
	c := matrix.NewDense[float64](60, 16)
	for _, bytes := range []int64{256, 512} { // nothing fits
		d, err := NewDevice(TestDevice(bytes))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range spmmCases(t, coo) {
			if _, err := SpMM(d, tc.a, b, c, 16, tc.inner); !errors.Is(err, ErrOutOfMemory) {
				t.Errorf("%d B, %s: expected OOM, got %v", bytes, tc.label, err)
			}
			if d.Allocated() != 0 {
				t.Errorf("%d B, %s: leaked %d bytes after OOM", bytes, tc.label, d.Allocated())
			}
		}
	}
}

// TestSpMMUnsupported: a format or inner loop without a naive kernel is a
// kernels.ErrSpec, refused before anything is allocated.
func TestSpMMUnsupported(t *testing.T) {
	coo := testMatrix(5, 40, 40, 200)
	sell, err := formats.SELLCSFromCOO(coo, formats.SELLC, formats.SELLSigma)
	if err != nil {
		t.Fatal(err)
	}
	cases := []spmmCase{
		{"sellcs", sell, kernels.InnerTiled},
		{"csr/unknown inner", formats.CSRFromCOO(coo), kernels.Inner(7)},
	}
	for _, tc := range spmmCases(t, coo) {
		if tc.inner != kernels.InnerTransB && tc.label != "csr" {
			cases = append(cases, spmmCase{tc.label + "-t", tc.a, kernels.InnerTransB})
		}
	}
	b := matrix.NewDenseRand[float64](40, 8, 1)
	c := matrix.NewDense[float64](40, 8)
	d := newTestDevice(t)
	for _, tc := range cases {
		if _, err := SpMM(d, tc.a, b, c, 8, tc.inner); !errors.Is(err, kernels.ErrSpec) {
			t.Errorf("%s: want kernels.ErrSpec, got %v", tc.label, err)
		}
		if d.Allocated() != 0 {
			t.Errorf("%s: allocated %d bytes", tc.label, d.Allocated())
		}
	}
}

// TestSpMMShapeErrors: Offload refuses mismatched operands with ErrLaunch
// and says which shapes it was handed.
func TestSpMMShapeErrors(t *testing.T) {
	csr := formats.CSRFromCOO(testMatrix(1, 10, 12, 30))
	d := newTestDevice(t)
	for _, tc := range []struct {
		label string
		b, c  *matrix.Dense[float64]
		k     int
		want  string
	}{
		{"k past B", matrix.NewDense[float64](12, 8), matrix.NewDense[float64](10, 16), 16, "B 12x8"},
		{"k past C", matrix.NewDense[float64](12, 16), matrix.NewDense[float64](10, 8), 16, "C 10x8"},
		{"negative k", matrix.NewDense[float64](12, 8), matrix.NewDense[float64](10, 8), -1, "k=-1"},
		{"B rows", matrix.NewDense[float64](11, 8), matrix.NewDense[float64](10, 8), 8, "A is 10x12, B 11x8"},
		{"C rows", matrix.NewDense[float64](12, 8), matrix.NewDense[float64](9, 8), 8, "C 9x8"},
	} {
		_, err := SpMM(d, csr, tc.b, tc.c, tc.k, kernels.InnerTiled)
		if !errors.Is(err, ErrLaunch) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrLaunch naming %q", tc.label, err, tc.want)
		}
	}
}
