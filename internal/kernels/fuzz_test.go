package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
)

// FuzzSpMM is the differential sweep's fuzzing arm, alongside mmio's
// FuzzReadCOO: the fuzzer steers matrix shape, density, k, and block size;
// the body converts a random COO into every format and checks every
// enumerated variant against the dense GEMM reference under the sweep's
// one contract: bit for bit. Any structural edge the generators in
// differential_test.go miss — odd block remainders, width-zero ELL, a
// format constructor rejecting a shape — is in scope here.
func FuzzSpMM(f *testing.F) {
	// seed, rows, cols, nnz, k, block: the fixed corpus pins the BCSR/BELL
	// block-remainder edge (dimensions not divisible by the block size), the
	// 1×1 minimum, an all-zero matrix, and a 16-wide-tile k.
	f.Add(int64(1), uint8(40), uint8(30), uint16(200), uint8(16), uint8(3))
	f.Add(int64(7), uint8(13), uint8(9), uint16(40), uint8(8), uint8(4))  // 13%4, 9%4 != 0
	f.Add(int64(9), uint8(21), uint8(17), uint16(60), uint8(5), uint8(5)) // 21%5=1: one-row remainder block
	f.Add(int64(3), uint8(1), uint8(1), uint16(1), uint8(1), uint8(2))    // minimal shape, block > dims
	f.Add(int64(5), uint8(30), uint8(20), uint16(0), uint8(12), uint8(3)) // all-zero
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8 uint8, nnz16 uint16, k8, block8 uint8) {
		rows := 1 + int(rows8)%64
		cols := 1 + int(cols8)%64
		nnz := int(nnz16) % (rows*cols + 1)
		k := 1 + int(k8)%32
		block := 1 + int(block8)%6
		const threads = 3

		rng := rand.New(rand.NewSource(seed))
		coo := matrix.NewCOO[float64](rows, cols, nnz)
		for i := 0; i < nnz; i++ {
			coo.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
		}
		coo.Dedup()

		in := NewVariantInput(coo, k, threads, block, seed)
		sliceC := 1 + int(block8)%4
		sell, err := formats.SELLCSFromCOO(coo, sliceC, sliceC*(1+int(k8)%4))
		if err != nil {
			t.Fatalf("fixture rows=%d cols=%d nnz=%d block=%d: %v", rows, cols, coo.NNZ(), block, err)
		}
		in.Formats = map[string]formats.Sparse{"sellcs": sell}
		ref := matrix.NewDense[float64](rows, k)
		if err := GEMM(coo.ToDense(), in.B, ref); err != nil {
			t.Fatal(err)
		}

		for _, v := range Variants() {
			out := matrix.NewDense[float64](rows, k)
			for i := range out.Data {
				out.Data[i] = 1e301
			}
			if err := v.Run(in, out); err != nil {
				t.Fatalf("%s (rows=%d cols=%d nnz=%d k=%d block=%d): %v",
					v.Name, rows, cols, coo.NNZ(), k, block, err)
			}
			for i := 0; i < rows; i++ {
				for j := 0; j < k; j++ {
					got, want := out.At(i, j), ref.At(i, j)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: C[%d,%d] = %v, want %v bitwise (rows=%d cols=%d nnz=%d k=%d block=%d)",
							v.Name, i, j, got, want, rows, cols, coo.NNZ(), k, block)
					}
				}
			}
		}
	})
}
