package cachesim

import (
	"math/rand"
	"slices"
	"testing"
)

func TestCacheBasics(t *testing.T) {
	c, err := New(16, 2) // 8 sets of 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0) {
		t.Fatal("same line must hit")
	}
	if c.Access(1) {
		t.Fatal("next line must miss")
	}
	c.Reset()
	if c.Access(0) || c.Access(1) {
		t.Fatal("reset must empty every set")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 8 sets: three lines mapping to the same set evict the least
	// recently used.
	c, err := New(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := uint64(0), uint64(8), uint64(16)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Fatal("a should survive")
	}
	if c.Access(b) {
		t.Fatal("b should have been evicted")
	}
}

// mtfSet is the reference model of one set: a move-to-front list of at
// most ways lines, most recent first.
type mtfSet struct {
	ways  int
	lines []uint64
}

func (s *mtfSet) access(line uint64) bool {
	if i := slices.Index(s.lines, line); i >= 0 {
		s.lines = slices.Delete(s.lines, i, i+1)
		s.lines = slices.Insert(s.lines, 0, line)
		return true
	}
	s.lines = slices.Insert(s.lines, 0, line)
	if len(s.lines) > s.ways {
		s.lines = s.lines[:s.ways]
	}
	return false
}

// TestLRUMatchesMoveToFront replays random lines over a few sets and
// compares every access against a move-to-front list per set, before and
// after a Reset. Lines are drawn from a pool a little larger than the cache
// so hits, misses and evictions all occur.
func TestLRUMatchesMoveToFront(t *testing.T) {
	const sets = 4
	for _, ways := range []int{1, 2, 8, 16} {
		c, err := New(sets*ways, ways)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ways)))
		pool := uint64(sets*ways + sets*ways/2 + 1)
		for pass := 0; pass < 2; pass++ {
			ref := make([]mtfSet, sets)
			for i := range ref {
				ref[i].ways = ways
			}
			hits := 0
			for n := 0; n < 20000; n++ {
				line := uint64(rng.Int63n(int64(pool)))
				want := ref[line%sets].access(line)
				if got := c.Access(line); got != want {
					t.Fatalf("ways=%d pass %d access %d (line %d): hit=%v, want %v", ways, pass, n, line, got, want)
				}
				if want {
					hits++
				}
			}
			if hits == 0 || hits == 20000 {
				t.Fatalf("ways=%d pass %d: %d hits of 20000 exercise only one path", ways, pass, hits)
			}
			c.Reset()
		}
	}
}
