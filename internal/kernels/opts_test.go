package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// powerLawCOO builds a hub-heavy matrix: row degrees follow a squared-
// uniform draw so a few rows hold most of the nonzeros — the skew that
// breaks row-static scheduling. Some rows stay empty on purpose.
func powerLawCOO(rows, cols int, seed int64) *matrix.COO[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[float64](rows, cols, 0)
	for i := 0; i < rows; i++ {
		u := rng.Float64()
		deg := int(u * u * u * float64(cols)) // heavy tail, many near-zero
		if i%17 == 0 {
			deg = 0 // explicit empty rows
		}
		if i == rows/3 {
			deg = cols // one full hub row
		}
		for d := 0; d < deg; d++ {
			m.Append(int32(i), int32(rng.Intn(cols)), rng.NormFloat64())
		}
	}
	m.Dedup()
	return m
}

// TestOptsVariantsBitwiseEqual pins the strongest property the scheduling
// layer offers: balanced scheduling, pooled execution and k-tiling never
// change the per-element accumulation order, so every scheduled Spec must be
// *bitwise* identical to its format's serial kernel — on skewed matrices
// with empty rows, with rows >> threads and threads >> rows, and for k both
// below and above the tile width.
func TestOptsVariantsBitwiseEqual(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()

	for _, shape := range []struct{ rows, cols int }{
		{500, 120}, // rows >> threads
		{7, 40},    // threads >> rows
	} {
		coo := powerLawCOO(shape.rows, shape.cols, 42)
		csr := formats.CSRFromCOO(coo)
		ell := formats.ELLFromCOO(coo, formats.RowMajor)
		bcsr, err := formats.BCSRFromCOO(coo, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		bell, err := formats.BELLFromCOO(coo, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		sell, err := formats.SELLCSFromCOO(coo, 8, 32)
		if err != nil {
			t.Fatal(err)
		}

		for _, k := range []int{5, 64, 128, 200, 336} { // 200, 336 > tileK
			b := matrix.NewDenseRand[float64](shape.cols, k, 7)
			serial := map[string]*matrix.Dense[float64]{}
			for name, run := range map[string]func(out *matrix.Dense[float64]) error{
				"csr":  func(out *matrix.Dense[float64]) error { return CSR(csr, b, out, k, Spec{}) },
				"ell":  func(out *matrix.Dense[float64]) error { return ELL(ell, b, out, k, Spec{}) },
				"bcsr": func(out *matrix.Dense[float64]) error { return BCSR(bcsr, b, out, k, Spec{}) },
				"bell": func(out *matrix.Dense[float64]) error { return BELL(bell, b, out, k, Spec{}) },
				"sell": func(out *matrix.Dense[float64]) error { return SELLCS(sell, b, out, k, Spec{}) },
				"coo":  func(out *matrix.Dense[float64]) error { return COO(coo, b, out, k, Spec{}) },
			} {
				out := matrix.NewDense[float64](shape.rows, k)
				if err := run(out); err != nil {
					t.Fatalf("%s serial (k=%d): %v", name, k, err)
				}
				serial[name] = out
			}

			for _, threads := range []int{1, 4, 64} {
				for _, s := range []Spec{
					{Threads: threads, Schedule: ScheduleBalanced},
					{Threads: threads, Pool: pool},
					{Threads: threads, Schedule: ScheduleBalanced, Pool: pool},
				} {
					label := fmt.Sprintf("k=%d threads=%d sched=%s pool=%v",
						k, threads, s.Schedule, s.Pool != nil)
					variants := map[string]func(out *matrix.Dense[float64]) error{
						"csr":  func(out *matrix.Dense[float64]) error { return CSR(csr, b, out, k, s) },
						"ell":  func(out *matrix.Dense[float64]) error { return ELL(ell, b, out, k, s) },
						"bcsr": func(out *matrix.Dense[float64]) error { return BCSR(bcsr, b, out, k, s) },
						"bell": func(out *matrix.Dense[float64]) error { return BELL(bell, b, out, k, s) },
						"sell": func(out *matrix.Dense[float64]) error { return SELLCS(sell, b, out, k, s) },
						"coo":  func(out *matrix.Dense[float64]) error { return COO(coo, b, out, k, s) },
					}
					for name, run := range variants {
						out := matrix.NewDense[float64](shape.rows, k)
						for i := range out.Data {
							out.Data[i] = 1e301 // poison: kernel must overwrite
						}
						if err := run(out); err != nil {
							t.Fatalf("%s %s: %v", name, label, err)
						}
						if !out.EqualTol(serial[name], 0) {
							t.Fatalf("%s %s: not bitwise equal to serial (rows=%d)",
								name, label, shape.rows)
						}
					}
				}
			}
		}
	}
}

// TestFixedTiledMatchesGeneric pins the k values the retired fixed-k family
// served by tiling (k % 8 == 0, up to three tileK panels) and the ones it
// refused: COO, ELL and BCSR, serial and parallel, and parallel CSR must
// match serial CSR bitwise at every one.
func TestFixedTiledMatchesGeneric(t *testing.T) {
	coo := powerLawCOO(120, 80, 3)
	csr := formats.CSRFromCOO(coo)
	ell := formats.ELLFromCOO(coo, formats.RowMajor)
	bcsr, err := formats.BCSRFromCOO(coo, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{7, 12, 24, 40, 129, 136, 256, 328} {
		b := matrix.NewDenseRand[float64](80, k, 11)
		want := matrix.NewDense[float64](120, k)
		if err := CSR(csr, b, want, k, Spec{}); err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func(out *matrix.Dense[float64]) error{
			"csr-par":  func(out *matrix.Dense[float64]) error { return CSR(csr, b, out, k, Spec{Threads: 4}) },
			"ell":      func(out *matrix.Dense[float64]) error { return ELL(ell, b, out, k, Spec{}) },
			"ell-par":  func(out *matrix.Dense[float64]) error { return ELL(ell, b, out, k, Spec{Threads: 4}) },
			"bcsr":     func(out *matrix.Dense[float64]) error { return BCSR(bcsr, b, out, k, Spec{}) },
			"bcsr-par": func(out *matrix.Dense[float64]) error { return BCSR(bcsr, b, out, k, Spec{Threads: 4}) },
			"coo":      func(out *matrix.Dense[float64]) error { return COO(coo, b, out, k, Spec{}) },
			"coo-par":  func(out *matrix.Dense[float64]) error { return COO(coo, b, out, k, Spec{Threads: 4}) },
		} {
			out := matrix.NewDense[float64](120, k)
			for i := range out.Data {
				out.Data[i] = 1e301
			}
			if err := run(out); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if !out.EqualTol(want, 0) {
				t.Fatalf("%s k=%d: not bitwise equal to serial CSR", name, k)
			}
		}
	}
}
