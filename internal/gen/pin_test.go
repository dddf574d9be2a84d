package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// cooHash is an FNV-1a hash of the matrix's shape and its triplet stream in
// storage order: any change to a row, column, value bit or their order
// changes it.
func cooHash(m *matrix.COO[float64]) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for i := range m.Vals {
		put(uint64(uint32(m.RowIdx[i]))<<32 | uint64(uint32(m.ColIdx[i])))
		put(math.Float64bits(m.Vals[i]))
	}
	return h.Sum64()
}

// TestGeneratedMatricesPinned pins every registry matrix at two scales —
// including the benchmark's cant@0.1, torso1@0.03, nd24k@0.05 and
// dw4096@0.05 — bit for bit. The generator's rng draws, their order, the
// collision walk and the per-row column order all feed the hash, so a
// faster generator must reproduce the same stream exactly.
func TestGeneratedMatricesPinned(t *testing.T) {
	pins := []struct {
		name  string
		scale float64
		want  uint64
	}{
		{"2cubes_sphere", 0.01, 0xe2d4d04a4e128f01},
		{"2cubes_sphere", 0.03, 0xdec757a1b61a01e1},
		{"af23560", 0.01, 0xc1a66841fa64d4f4},
		{"af23560", 0.03, 0x9050cb89c9f51331},
		{"bcsstk13", 0.1, 0xfc2af5877510cb5a},
		{"bcsstk13", 0.3, 0xcae596325570e690},
		{"bcsstk17", 0.01, 0x73d74aeddc1cb606},
		{"bcsstk17", 0.03, 0x7d5fd1439c6d9918},
		{"cant", 0.03, 0x76a95283ed4dd897},
		{"cant", 0.1, 0x2c067b37801c7a97},
		{"cop20k_A", 0.01, 0xe8aa1d4a7cc9494a},
		{"cop20k_A", 0.03, 0x5ee5d9e1370b5d1a},
		{"crankseg_2", 0.01, 0xab34b63ab50758ad},
		{"crankseg_2", 0.03, 0xd847e79099b24e2b},
		{"dw4096", 0.03, 0x0919cbeccbd63e8f},
		{"dw4096", 0.05, 0xc62616c1a265792f},
		{"nd24k", 0.01, 0x16469a6c7a2add14},
		{"nd24k", 0.05, 0xe83b9c5aadfa161b},
		{"pdb1HYS", 0.01, 0xd7bbfaf3a111b758},
		{"pdb1HYS", 0.03, 0x10f58b2e8f56aba5},
		{"rma10", 0.01, 0x542c098e35ce97e3},
		{"rma10", 0.03, 0xbc98525dd89136ed},
		{"shallow_water1", 0.01, 0x1e0d02639f58067c},
		{"shallow_water1", 0.03, 0xa783d69dcc44ca6e},
		{"torso1", 0.01, 0x54a4cc7c18cb83de},
		{"torso1", 0.03, 0xd26d9d283ad18ff3},
		{"x104", 0.01, 0xef21d5f31e1d2e19},
		{"x104", 0.03, 0xf69d709bf6703f53},
	}
	covered := map[string]int{}
	for _, p := range pins {
		covered[p.name]++
		m, _, err := GenerateScaled(p.name, p.scale)
		if err != nil {
			t.Fatalf("%s@%g: %v", p.name, p.scale, err)
		}
		if got := cooHash(m); got != p.want {
			t.Errorf("%s@%g: hash %#016x, want %#016x", p.name, p.scale, got, p.want)
		}
	}
	for _, name := range Names() {
		if covered[name] != 2 {
			t.Errorf("%s pinned at %d scales, want 2", name, covered[name])
		}
	}
}

// TestFromDegreesWrapPinned pins FromDegrees where the collision walk is
// long or wraps past the last column to column 0: locality-0 rows of degree
// Cols-1 and Cols (the fem case wraps 7 times), and KindPowerLaw rows of
// degree >= Cols/2, whose squared draws pile onto the low "hub" columns (the
// locality-0.3 case wraps 4 times). Several rows share one call, so any
// per-row state the walk keeps must be reset between them.
func TestFromDegreesWrapPinned(t *testing.T) {
	cases := []struct {
		name string
		deg  []int
		p    PlaceParams
		want uint64
	}{
		{"fem-loc0-full", []int{63, 0, 63, 5, 64, 63}, PlaceParams{Cols: 64, Kind: KindFEM}, 0xc97b016ff0c29883},
		{"powerlaw-loc0", []int{50, 99, 0, 100, 60, 1}, PlaceParams{Cols: 100, Kind: KindPowerLaw}, 0x32382f334fe2550c},
		{"powerlaw-loc0.3", []int{40, 70, 79, 80, 3}, PlaceParams{Cols: 80, Kind: KindPowerLaw, Locality: 0.3}, 0x7a84acc39744d28c},
		{"stencil", []int{7, 7, 7, 7}, PlaceParams{Cols: 9, Kind: KindStencil, Locality: 1}, 0x2be62181d761bc43},
	}
	for _, c := range cases {
		m, err := FromDegrees[float64](c.deg, c.p, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := cooHash(m); got != c.want {
			t.Errorf("%s: hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
