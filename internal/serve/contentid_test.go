package serve

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

// TestContentIDPinned pins the content IDs of the matrices the benchmark
// registers and of the edge cases a hash stream can get wrong. IDs are
// persisted in WALs and snapshots and place matrices on the cluster ring,
// so a faster hash must reproduce every one of them.
func TestContentIDPinned(t *testing.T) {
	for _, p := range []struct {
		name  string
		scale float64
		want  string
	}{
		{"nd24k", 0.05, "49ee229275eb0ff5"},
		{"cant", 0.05, "19266da99da5f72b"},
		{"torso1", 0.03, "bf16acdd8dea6502"},
		{"dw4096", 0.05, "65510b8c00d14d82"},
	} {
		m, err := Materialize(RegisterRequest{Name: p.name, Scale: p.scale})
		if err != nil {
			t.Fatalf("%s@%g: %v", p.name, p.scale, err)
		}
		Canonicalize(m)
		if got := ContentID(m); got != p.want {
			t.Errorf("%s@%g: ContentID %s, want %s", p.name, p.scale, got, p.want)
		}
	}

	one := func(rows, cols int, r, c int32, v float64) *matrix.COO[float64] {
		m := matrix.NewCOO[float64](rows, cols, 1)
		m.Append(r, c, v)
		return m
	}
	for _, c := range []struct {
		name string
		m    *matrix.COO[float64]
		want string
	}{
		{"empty", matrix.NewCOO[float64](3, 5, 0), "b66a7c45e6def6c6"},
		{"one entry", one(4, 7, 2, 5, 1.5), "159d334f392e5901"},
		{"negative zero", one(2, 2, 1, 0, math.Copysign(0, -1)), "a1b568a665e20451"},
		{"NaN payload", one(2, 3, 0, 2, math.Float64frombits(0x7ff8_0000_dead_beef)), "9cb25ba60779baa0"},
	} {
		Canonicalize(c.m)
		if got := ContentID(c.m); got != c.want {
			t.Errorf("%s: ContentID %s, want %s", c.name, got, c.want)
		}
	}
}
