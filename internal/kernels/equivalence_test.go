package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/formats"
	"repro/internal/matrix"
)

// TestAllKernelsAgreeProperty is the suite's central correctness property:
// for random matrices, shapes, k values, block sizes and thread counts,
// every SpMM kernel of every format must produce the same C, to the bit:
// no kernel reassociates a sum. This is what lets the studies compare
// formats knowing they compute the same thing.
func TestAllKernelsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(60)
		cols := 1 + rng.Intn(60)
		nnz := rng.Intn(rows*cols/2 + 1)
		k := 1 + rng.Intn(40)
		threads := 1 + rng.Intn(9)
		block := 1 + rng.Intn(6)
		sigmaMult := 1 + rng.Intn(4)

		coo := matrix.NewCOO[float64](rows, cols, nnz)
		for i := 0; i < nnz; i++ {
			coo.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
		}
		coo.Dedup()

		b := matrix.NewDenseRand[float64](cols, k, seed)
		ref := matrix.NewDense[float64](rows, k)
		if err := COO(coo, b, ref, k, Spec{}); err != nil {
			t.Logf("reference: %v", err)
			return false
		}

		csr := formats.CSRFromCOO(coo)
		ell := formats.ELLFromCOO(coo, formats.RowMajor)
		ellCM := formats.ELLFromCOO(coo, formats.ColMajor)
		bcsr, err := formats.BCSRFromCOO(coo, block, block)
		if err != nil {
			t.Logf("bcsr: %v", err)
			return false
		}
		bell, err := formats.BELLFromCOO(coo, block, block)
		if err != nil {
			t.Logf("bell: %v", err)
			return false
		}
		c := 1 + rng.Intn(8)
		sell, err := formats.SELLCSFromCOO(coo, c, c*sigmaMult)
		if err != nil {
			t.Logf("sellcs: %v", err)
			return false
		}

		runs := map[string]func(out *matrix.Dense[float64]) error{
			"coo-par":    func(out *matrix.Dense[float64]) error { return COO(coo, b, out, k, Spec{Threads: threads}) },
			"csr":        func(out *matrix.Dense[float64]) error { return CSR(csr, b, out, k, Spec{}) },
			"csr-par":    func(out *matrix.Dense[float64]) error { return CSR(csr, b, out, k, Spec{Threads: threads}) },
			"ell":        func(out *matrix.Dense[float64]) error { return ELL(ell, b, out, k, Spec{}) },
			"ell-cm":     func(out *matrix.Dense[float64]) error { return ELL(ellCM, b, out, k, Spec{Threads: threads}) },
			"bcsr":       func(out *matrix.Dense[float64]) error { return BCSR(bcsr, b, out, k, Spec{}) },
			"bcsr-par":   func(out *matrix.Dense[float64]) error { return BCSR(bcsr, b, out, k, Spec{Threads: threads}) },
			"bcsr-inner": func(out *matrix.Dense[float64]) error { return BCSRParallelInner(bcsr, b, out, k, threads) },
			"bell":       func(out *matrix.Dense[float64]) error { return BELL(bell, b, out, k, Spec{Threads: threads}) },
			"sellcs":     func(out *matrix.Dense[float64]) error { return SELLCS(sell, b, out, k, Spec{Threads: threads}) },
		}
		for name, run := range runs {
			out := matrix.NewDense[float64](rows, k)
			for i := range out.Data {
				out.Data[i] = 1e301 // poison: kernels must overwrite
			}
			if err := run(out); err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			view, err := out.View(0, 0, rows, k)
			if err != nil {
				return false
			}
			if !view.Clone().EqualTol(ref, 0) {
				t.Logf("%s: result mismatch (rows=%d cols=%d nnz=%d k=%d threads=%d block=%d)",
					name, rows, cols, coo.NNZ(), k, threads, block)
				return false
			}
		}
		return true
	}
	eachInner(t, func(t *testing.T) {
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFormatsRoundTripProperty: every format's ToCOO must reproduce the
// source matrix — the structural counterpart of the kernel property above.
func TestFormatsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		coo := matrix.NewCOO[float64](rows, cols, 0)
		for i := 0; i < rng.Intn(rows*cols+1); i++ {
			coo.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64()+2)
		}
		coo.Dedup()
		want := coo.ToDense()

		block := 1 + rng.Intn(5)
		bcsr, err := formats.BCSRFromCOO(coo, block, block)
		if err != nil {
			return false
		}
		bell, err := formats.BELLFromCOO(coo, block, block)
		if err != nil {
			return false
		}
		c := 1 + rng.Intn(6)
		sell, err := formats.SELLCSFromCOO(coo, c, c*(1+rng.Intn(3)))
		if err != nil {
			return false
		}
		return formats.CSRFromCOO(coo).ToCOO().ToDense().EqualTol(want, 0) &&
			formats.ELLFromCOO(coo, formats.RowMajor).ToCOO().ToDense().EqualTol(want, 0) &&
			bcsr.ToCOO().ToDense().EqualTol(want, 0) &&
			bell.ToCOO().ToDense().EqualTol(want, 0) &&
			sell.ToCOO().ToDense().EqualTol(want, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
