package kernels

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// testCase bundles a sparse matrix, its dense expansion, a dense B, and the
// reference C computed with GEMM.
type testCase struct {
	coo  *matrix.COO[float64]
	b    *matrix.Dense[float64]
	want *matrix.Dense[float64]
	k    int
}

func newCase(t *testing.T, seed int64, rows, cols, nnz, kmax, k int) *testCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO[float64](rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		coo.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
	}
	coo.Dedup()
	b := matrix.NewDenseRand[float64](cols, kmax, seed+1)
	bk, err := b.View(0, 0, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewDense[float64](rows, k)
	if err := GEMM(coo.ToDense(), bk.Clone(), want); err != nil {
		t.Fatal(err)
	}
	return &testCase{coo: coo, b: b, want: want, k: k}
}

// checkResult compares the first k columns of got against want.
func (tc *testCase) check(t *testing.T, got *matrix.Dense[float64], label string) {
	t.Helper()
	view, err := got.View(0, 0, got.Rows, tc.k)
	if err != nil {
		t.Fatal(err)
	}
	if !view.Clone().EqualTol(tc.want, 1e-9) {
		diff, _ := view.Clone().MaxAbsDiff(tc.want)
		t.Fatalf("%s: result differs from GEMM reference (max abs diff %g)", label, diff)
	}
}

func (tc *testCase) out() *matrix.Dense[float64] {
	c := matrix.NewDense[float64](tc.coo.Rows, tc.b.Cols)
	// Poison so kernels that fail to overwrite are caught.
	for i := range c.Data {
		c.Data[i] = 1e300
	}
	return c
}

var shapes = []struct {
	rows, cols, nnz, kmax, k int
}{
	{1, 1, 1, 8, 8},
	{10, 10, 30, 16, 16},
	{37, 53, 200, 20, 13},
	{64, 64, 500, 128, 128},
	{100, 40, 700, 32, 32},
	{5, 200, 300, 64, 64},
	{80, 80, 0, 8, 8}, // empty matrix
	{50, 50, 400, 24, 0},
	{60, 45, 400, 336, 328}, // two full 128-column tiles and a ragged tail, B strided
}

func forAllShapes(t *testing.T, name string, run func(t *testing.T, tc *testCase, threads int)) {
	t.Helper()
	for si, s := range shapes {
		tc := newCase(t, int64(1000+si), s.rows, s.cols, s.nnz, s.kmax, s.k)
		for _, threads := range []int{1, 4, 13} {
			run(t, tc, threads)
		}
		_ = name
	}
}

func TestCOOKernels(t *testing.T) {
	forAllShapes(t, "coo", func(t *testing.T, tc *testCase, threads int) {
		c := tc.out()
		if err := COO(tc.coo, tc.b, c, tc.k, Spec{}); err != nil {
			t.Fatal(err)
		}
		tc.check(t, c, "COOSerial")

		c = tc.out()
		if err := COO(tc.coo, tc.b, c, tc.k, Spec{Threads: threads}); err != nil {
			t.Fatal(err)
		}
		tc.check(t, c, "COOParallel")
	})
}

func TestCSRKernels(t *testing.T) {
	forAllShapes(t, "csr", func(t *testing.T, tc *testCase, threads int) {
		a := formats.CSRFromCOO(tc.coo)
		for _, run := range []struct {
			label string
			fn    func(c *matrix.Dense[float64]) error
		}{
			{"CSRSerial", func(c *matrix.Dense[float64]) error { return CSR(a, tc.b, c, tc.k, Spec{}) }},
			{"CSRParallel", func(c *matrix.Dense[float64]) error { return CSR(a, tc.b, c, tc.k, Spec{Threads: threads}) }},
		} {
			c := tc.out()
			if err := run.fn(c); err != nil {
				t.Fatalf("%s: %v", run.label, err)
			}
			tc.check(t, c, run.label)
		}
	})
}

func TestELLKernels(t *testing.T) {
	for _, layout := range []formats.ELLLayout{formats.RowMajor, formats.ColMajor} {
		forAllShapes(t, "ell", func(t *testing.T, tc *testCase, threads int) {
			a := formats.ELLFromCOO(tc.coo, layout)
			c := tc.out()
			if err := ELL(a, tc.b, c, tc.k, Spec{}); err != nil {
				t.Fatal(err)
			}
			tc.check(t, c, "ELLSerial "+layout.String())

			c = tc.out()
			if err := ELL(a, tc.b, c, tc.k, Spec{Threads: threads}); err != nil {
				t.Fatal(err)
			}
			tc.check(t, c, "ELLParallel "+layout.String())
		})
	}
}

func TestBCSRKernels(t *testing.T) {
	// 20 rows per block: a block taller than 16 lanes.
	for _, bs := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {3, 5}, {20, 3}} {
		forAllShapes(t, "bcsr", func(t *testing.T, tc *testCase, threads int) {
			a, err := formats.BCSRFromCOO(tc.coo, bs[0], bs[1])
			if err != nil {
				t.Fatal(err)
			}
			c := tc.out()
			if err := BCSR(a, tc.b, c, tc.k, Spec{}); err != nil {
				t.Fatal(err)
			}
			tc.check(t, c, "BCSRSerial")

			c = tc.out()
			if err := BCSR(a, tc.b, c, tc.k, Spec{Threads: threads}); err != nil {
				t.Fatal(err)
			}
			tc.check(t, c, "BCSRParallel")

			c = tc.out()
			if err := BCSRParallelInner(a, tc.b, c, tc.k, threads); err != nil {
				t.Fatal(err)
			}
			tc.check(t, c, "BCSRParallelInner")
		})
	}
}

func TestBELLAndSELLKernels(t *testing.T) {
	forAllShapes(t, "bell", func(t *testing.T, tc *testCase, threads int) {
		be, err := formats.BELLFromCOO(tc.coo, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		c := tc.out()
		if err := BELL(be, tc.b, c, tc.k, Spec{}); err != nil {
			t.Fatal(err)
		}
		tc.check(t, c, "BELLSerial")

		c = tc.out()
		if err := BELL(be, tc.b, c, tc.k, Spec{Threads: threads}); err != nil {
			t.Fatal(err)
		}
		tc.check(t, c, "BELLParallel")

		se, err := formats.SELLCSFromCOO(tc.coo, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		c = tc.out()
		if err := SELLCS(se, tc.b, c, tc.k, Spec{}); err != nil {
			t.Fatal(err)
		}
		tc.check(t, c, "SELLCSSerial")

		c = tc.out()
		if err := SELLCS(se, tc.b, c, tc.k, Spec{Threads: threads}); err != nil {
			t.Fatal(err)
		}
		tc.check(t, c, "SELLCSParallel")
	})
}

// TestFixedKKernelsMatchGeneric holds the four formats the retired fixed-k
// family covered to the GEMM reference at the k values it specialised,
// serial and parallel, with B strided (kmax > k).
func TestFixedKKernelsMatchGeneric(t *testing.T) {
	for _, k := range []int{8, 16, 32, 64, 128} {
		tc := newCase(t, int64(7000+k), 60, 45, 400, k+8, k)
		a := formats.CSRFromCOO(tc.coo)
		e := formats.ELLFromCOO(tc.coo, formats.RowMajor)
		bb, err := formats.BCSRFromCOO(tc.coo, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			for label, run := range map[string]func(c *matrix.Dense[float64]) error{
				"CSR":  func(c *matrix.Dense[float64]) error { return CSR(a, tc.b, c, k, Spec{Threads: threads}) },
				"COO":  func(c *matrix.Dense[float64]) error { return COO(tc.coo, tc.b, c, k, Spec{Threads: threads}) },
				"ELL":  func(c *matrix.Dense[float64]) error { return ELL(e, tc.b, c, k, Spec{Threads: threads}) },
				"BCSR": func(c *matrix.Dense[float64]) error { return BCSR(bb, tc.b, c, k, Spec{Threads: threads}) },
			} {
				c := tc.out()
				if err := run(c); err != nil {
					t.Fatalf("k=%d %s threads=%d: %v", k, label, threads, err)
				}
				tc.check(t, c, fmt.Sprintf("k=%d %s threads=%d", k, label, threads))
			}
		}
	}
}

func TestShapeErrors(t *testing.T) {
	coo := matrix.NewCOO[float64](4, 4, 1)
	coo.Append(0, 0, 1)
	a := formats.CSRFromCOO(coo)
	b := matrix.NewDense[float64](4, 8)
	c := matrix.NewDense[float64](4, 8)

	if err := CSR(a, b, c, 9, Spec{}); !errors.Is(err, ErrShape) {
		t.Fatalf("k too large: %v", err)
	}
	if err := CSR(a, b, c, -1, Spec{}); !errors.Is(err, ErrShape) {
		t.Fatalf("negative k: %v", err)
	}
	badB := matrix.NewDense[float64](5, 8)
	if err := CSR(a, badB, c, 4, Spec{}); !errors.Is(err, ErrShape) {
		t.Fatalf("B rows mismatch: %v", err)
	}
	badC := matrix.NewDense[float64](3, 8)
	if err := CSR(a, b, badC, 4, Spec{}); !errors.Is(err, ErrShape) {
		t.Fatalf("C rows mismatch: %v", err)
	}
}

// TestSpecErrors: every format's entry takes every Spec, so the one
// execution Multiply refuses is a format it has no entry for — an error,
// never a silently different execution.
func TestSpecErrors(t *testing.T) {
	b := matrix.NewDense[float64](4, 8)
	c := matrix.NewDense[float64](4, 8)
	if err := Multiply(struct{ formats.Sparse }{}, b, c, 8, Spec{}); err == nil {
		t.Error("Multiply accepted a format it has no kernel for")
	}
}

// TestSpMVKernels: SpMV is Multiply at k = 1. On every lattice point —
// every format, serial and on four workers, each schedule, with and
// without a context, both ELL layouts — under every inner level,
// MultiplyVec over plain slices equals column 0 of the k = 16 product of
// the same operands under the same Spec bit for bit (the differential
// sweep holds that product to the dense reference).
func TestSpMVKernels(t *testing.T) {
	const k = 16
	pool := parallel.NewPool(sweepThreads)
	defer pool.Close()
	for class, coo := range sweepMatrices() {
		in := NewVariantInput(coo, k, sweepThreads, 3, 5)
		in.Pool = pool
		x := make([]float64, coo.Cols)
		for i := range x {
			x[i] = in.B.At(i, 0)
		}
		for _, v := range Variants() {
			if v.ablation != nil {
				continue // outside the lattice: no vector entry
			}
			a, err := in.Prepare(v)
			if err != nil {
				t.Fatalf("%s/%s: %v", class, v.Name, err)
			}
			t.Run(class+"/"+v.Name, func(t *testing.T) {
				eachInner(t, func(t *testing.T) {
					s := v.spec(in)
					wide := matrix.NewDense[float64](coo.Rows, k)
					if err := Multiply(a, in.B, wide, k, s); err != nil {
						t.Fatal(err)
					}
					y := make([]float64, coo.Rows)
					for i := range y {
						y[i] = 1e301 // poison: the kernel must overwrite
					}
					if err := MultiplyVec(a, x, y, s); err != nil {
						t.Fatal(err)
					}
					for i, got := range y {
						if want := wide.At(i, 0); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("y[%d] = %v, column 0 at k=%d is %v", i, got, k, want)
						}
					}
				})
			})
		}
	}
}

// TestSpMVShapeErrors: a vector of the wrong length is ErrShape on every
// format, before anything is written.
func TestSpMVShapeErrors(t *testing.T) {
	coo := matrix.NewCOO[float64](3, 4, 0)
	coo.Append(1, 2, 1.5)
	for _, r := range lattice {
		a, err := formats.FromCOO(r.format, coo, formats.Params{Block: 2})
		if err != nil {
			t.Fatal(err)
		}
		y := []float64{7, 7, 7}
		if err := MultiplyVec(a, make([]float64, 3), y, Spec{}); !errors.Is(err, ErrShape) {
			t.Errorf("%s: x length: %v", r.format, err)
		}
		if err := MultiplyVec(a, make([]float64, 4), y[:2], Spec{}); !errors.Is(err, ErrShape) {
			t.Errorf("%s: y length: %v", r.format, err)
		}
		if y[0] != 7 || y[1] != 7 || y[2] != 7 {
			t.Errorf("%s: y written on a shape error: %v", r.format, y)
		}
	}
}

func TestFlopCounts(t *testing.T) {
	if SpMMFlops(100, 8) != 1600 || SpMMFlops(100, 1) != 200 {
		t.Fatal("SpMMFlops")
	}
}

func TestGEMMShapeError(t *testing.T) {
	a := matrix.NewDense[float64](2, 3)
	b := matrix.NewDense[float64](4, 2)
	c := matrix.NewDense[float64](2, 2)
	if err := GEMM(a, b, c); !errors.Is(err, ErrShape) {
		t.Fatalf("GEMM shape: %v", err)
	}
}

func TestKernelsFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	coo := matrix.NewCOO[float32](20, 20, 0)
	for i := 0; i < 80; i++ {
		coo.Append(int32(rng.Intn(20)), int32(rng.Intn(20)), float32(rng.NormFloat64()))
	}
	coo.Dedup()
	b := matrix.NewDenseRand[float32](20, 16, 5)
	want := matrix.NewDense[float32](20, 16)
	if err := GEMM(coo.ToDense(), b, want); err != nil {
		t.Fatal(err)
	}
	a := formats.CSRFromCOO(coo)
	c := matrix.NewDense[float32](20, 16)
	if err := CSR(a, b, c, 16, Spec{Threads: 4}); err != nil {
		t.Fatal(err)
	}
	if !c.EqualTol(want, matrix.DefaultTol[float32]()) {
		t.Fatal("float32 CSR kernel mismatch")
	}
}
