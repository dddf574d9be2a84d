package formats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// TestBlockFillMatchesBCSR pins BlockFill's doc comment: on the inputs
// TestBCSRCountingAndMapBuildersAgree draws it reports the fill ratio of
// the BCSR it does not build, bit for bit.
func TestBlockFillMatchesBCSR(t *testing.T) {
	for _, bs := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {3, 5}, {16, 16}} {
		for _, order := range []string{"drawn", "row-major", "col-major", "deduplicated"} {
			for seed := int64(0); seed < 100; seed++ {
				var m *matrix.COO[float64]
				if order == "deduplicated" {
					m = quickCOO(seed)
				} else {
					m = messyCOO(rand.New(rand.NewSource(seed)), order)
				}
				b, err := BCSRFromCOO(m, bs[0], bs[1])
				if err != nil {
					t.Fatal(err)
				}
				got, err := BlockFill(m, bs[0], bs[1])
				if err != nil {
					t.Fatal(err)
				}
				if want := b.FillRatio(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d/%s seed %d: fill %v, want %v", bs[0], bs[1], order, seed, got, want)
				}
			}
		}
	}
	if _, err := BlockFill(quickCOO(1), 0, 4); err == nil {
		t.Fatal("block 0x4 accepted")
	}
}

// TestBlockBuildersAllocs pins the block builders' heap objects, whatever
// the input: BELLFromCOO makes its matrix, three arrays and the block
// pass's scratch, as BCSRFromCOO does, and BlockFill the scratch and one
// block row's columns and values — nothing the size of the matrix's blocks.
func TestBlockBuildersAllocs(t *testing.T) {
	for _, m := range []*matrix.COO[float64]{quickCOO(5), messyCOO(rand.New(rand.NewSource(3)), "drawn")} {
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := BELLFromCOO(m, 4, 4); err != nil {
				t.Fatal(err)
			}
		}); allocs > 5 {
			t.Fatalf("BELLFromCOO, %d triplets: %v allocations, want at most 5", m.NNZ(), allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := BlockFill(m, 4, 4); err != nil {
				t.Fatal(err)
			}
		}); allocs > 3 {
			t.Fatalf("BlockFill, %d triplets: %v allocations, want at most 3", m.NNZ(), allocs)
		}
	}
	m, _, err := gen.GenerateScaled("cant", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BCSRFromCOO(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := BlockFill(m, 4, 4); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// Most of what the count allocates is the pass's triplet order, a
	// quarter of the block values it never holds on this matrix.
	if grew, vals := after.TotalAlloc-before.TotalAlloc, uint64(len(b.Vals))*8; grew > vals/2 {
		t.Fatalf("BlockFill allocated %d bytes; the BCSR's block values are %d", grew, vals)
	}
}

// TestReadBCSRBoundsDeclaredSizes hands ReadBCSR a header declaring 2^20
// 4×4 blocks (128 MiB of values) followed by 16 bytes: the read must fail
// having allocated nothing near the declared size.
func TestReadBCSRBoundsDeclaredSizes(t *testing.T) {
	in := []byte(bcsrMagic)
	for _, v := range []int64{4, 4, 4, 4, 1, 1, 1 << 20} {
		in = binary.LittleEndian.AppendUint64(in, uint64(v))
	}
	in = append(in, make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBCSR[float64](bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated BCSR was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a %d-byte input declaring 128 MiB allocated %d bytes before failing", len(in), grew)
	}
}

// TestDivisorExact checks the block pass's multiply-and-shift division
// against the hardware's for every block size up to 300 and a sample of
// larger ones, at the edges of every quotient and across the index range.
func TestDivisorExact(t *testing.T) {
	ds := []int{1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 65535, 65536, 65537, 1_000_003}
	for d := 1; d <= 300; d++ {
		ds = append(ds, d)
	}
	rng := rand.New(rand.NewSource(1))
	for _, d := range ds {
		v := newDivisor(d)
		as := []int32{0, 1, math.MaxInt32, math.MaxInt32 - 1}
		for q := int64(1); q*int64(d) <= math.MaxInt32 && q < 1000; q++ {
			as = append(as, int32(q*int64(d)-1), int32(q*int64(d)))
		}
		for i := 0; i < 1000; i++ {
			as = append(as, rng.Int31())
		}
		for _, a := range as {
			if got, want := v.div(a), int(int64(a)/int64(d)); got != want {
				t.Fatalf("%d / %d = %d, want %d", a, d, got, want)
			}
		}
	}
}
