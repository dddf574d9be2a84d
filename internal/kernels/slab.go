package kernels

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/matrix"
)

// This file is the slab walk: the one loop over passes every format's entry
// runs its range function in. A slab is a range of A's columns whose B rows
// take at most a budget of bytes (half the per-core L2, l2); a pass
// visits every row (lane, block lane) and hands the row entry that row's run
// — its consecutive pairs whose columns lie in the pass's slab. Passes go in
// ascending slab order, so each C element still sums its products in
// ascending column order, and the first run of a row writes it while each
// later one continues it (the row entry's accumulate mode): the result is
// bitwise the one-pass walk's. Whether to slab at all is slabbed's to say;
// today's walk is the one pass over the whole slab.

// slab is the columns [lo, hi) of A one pass reads B rows for.
type slab struct{ lo, hi int }

// whole is the one pass of the unslabbed walk.
var whole = slab{0, math.MaxInt}

// cut returns the slots [p, q) of a row's n slots, step apart in cols from
// cols[base], whose columns lie in the slab. The columns must ascend along
// the row, which every format's constructor leaves them doing and slabbed
// checks before choosing more than one pass; the whole slab is every slot,
// unsearched.
func (sl slab) cut(cols []int32, base, n, step int) (p, q int) {
	p, q = 0, n
	if sl.lo > 0 {
		p = search(cols, base, 0, n, step, sl.lo)
	}
	if sl.hi != math.MaxInt {
		q = search(cols, base, p, n, step, sl.hi)
	}
	return p, q
}

// search is the first of slots [from, n) of cut's row whose column is at
// least col, or n.
func search(cols []int32, base, from, n, step, col int) int {
	lo, m := from, n-from
	for m > 0 {
		half := m >> 1
		if int(cols[base+(lo+half)*step]) < col {
			lo += half + 1
			m -= half + 1
		} else {
			m = half
		}
	}
	return lo
}

// blocks is the slab in block columns of width bc: a block belongs to the
// slab its first column is in, so a block row's slots cut as a row's do.
func (sl slab) blocks(bc int) slab {
	lo, hi := (sl.lo+bc-1)/bc, sl.hi
	if hi != math.MaxInt {
		hi = (hi + bc - 1) / bc
	}
	return slab{lo, hi}
}

// visits reports whether the pass calls the row entry on slots [p, q) of a
// row of n: when they are a run, or for an empty row in the first pass,
// whose empty run writes the row's zeros. A row with pairs but none in the
// slab is left for the passes that hold them. The call accumulates when
// p > 0: an earlier pass wrote the row.
func (sl slab) visits(p, q, n int) bool { return p < q || n == 0 && sl.lo == 0 }

// ranger is a format's range function bound to its operands: rows(lo, hi,
// sl) writes, or for a later slab continues, the C rows of loop units
// [lo, hi) — rows, block rows, slices or COO triplets — from their pairs in
// sl.
type ranger interface{ rows(lo, hi int, sl slab) }

// walk is the slab walk: it runs rg over loop units [0, n) once per pass,
// slab by slab in ascending column order, each pass one dispatch of r's
// format as run makes it. budget is the bytes of B one slab's rows may take
// (slabbed's answer); 0 is the one pass over the whole slab. cols is A's
// column count, k the width of the multiply. A serial walk calls rg itself;
// a parallel one hands each region the same pass value, whose slab the
// loop moves between regions: one heap object a call, however many passes.
func walk[R ranger](s Spec, r *row, n int, bounds []int, rg R, cols, k, budget int) error {
	width := cols
	if budget > 0 && k > 0 {
		width = max(1, budget/(k*8))
	}
	var ps *pass[R]
	if !s.direct() {
		ps = &pass[R]{rg: rg}
	}
	for lo := 0; lo == 0 || lo < cols; lo += width {
		sl := passSlab(lo, width, cols)
		if ps == nil {
			rg.rows(0, n, sl)
			continue
		}
		ps.sl = sl
		if err := run(s, r, n, bounds, ps); err != nil {
			return err
		}
	}
	return nil
}

// pass is one pass of a parallel walk as the pool runs it: rg over the
// units a piece owns, in slab sl.
type pass[R ranger] struct {
	rg R
	sl slab
}

func (p *pass[R]) Range(lo, hi, _ int) { p.rg.rows(lo, hi, p.sl) }

// passSlab is the pass whose slab starts at column lo: the whole slab when
// it is the only one, else width columns, the last reaching past A's.
func passSlab(lo, width, cols int) slab {
	switch {
	case width >= cols:
		return whole
	case lo+width >= cols:
		return slab{lo, math.MaxInt}
	}
	return slab{lo, lo + width}
}

// l2 is the per-core L2 in bytes, read once from sysfs; 0 where there is
// none to read, and then nothing slabs.
var l2 = readL2("/sys/devices/system/cpu/cpu0/cache")

// readL2 returns the size of the level-2 data or unified cache described
// under dir (index0, index1, ... as Linux lays them out), or 0.
func readL2(dir string) int {
	for i := 0; ; i++ {
		index := fmt.Sprintf("%s/index%d/", dir, i)
		level, err := os.ReadFile(index + "level")
		if err != nil {
			return 0
		}
		typ, _ := os.ReadFile(index + "type")
		if strings.TrimSpace(string(level)) != "2" || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		size, _ := os.ReadFile(index + "size")
		return parseSize(strings.TrimSpace(string(size)))
	}
}

// parseSize reads a sysfs cache size: bytes, or a count of K or M.
func parseSize(s string) int {
	unit := 1
	switch {
	case strings.HasSuffix(s, "K"):
		s, unit = s[:len(s)-1], 1<<10
	case strings.HasSuffix(s, "M"):
		s, unit = s[:len(s)-1], 1<<20
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return n * unit
}

// reuser is every format the slab walk serves: each keeps the Reuse scan of
// the matrix it holds.
type reuser interface{ Reuse() matrix.Reuse }

// slabbed is the rule, and the one place that decides whether to slab: it
// returns the budget — half the L2, the bytes of B one slab's rows may take
// — or 0 for today's one pass. Counted in B rows of k·8 bytes and taken per
// row of A (z pairs, a fraction f of them in columns the row before also
// holds), the slab walk moves every pair's B row to the L2. While B's k
// columns fit in the L2 the one pass already finds them there, so that
// gains nothing. Past it, the f·z pairs the row before just read lose
// their L1 hit, one level nearer, and the (1−f)·z others lose their trip
// beyond the L2, one level farther; and each of the row's c cuts — a run
// that continues it — reads and writes its C row beyond the L2 once more.
// Slab when the B rows saved exceed the C rows added:
//
//	z·(1 − 2f) > 2·c,  summed over the rows: Pairs − 2·Shared > 2·cuts,
//
// where a row spanning s columns crosses s/width slab edges, so cuts is
// Span/width, at most passes − 1 a row. A matrix without a sorted scan
// never slabs: cut needs each row's columns ascending.
func slabbed(a reuser, cols, k int) int {
	if l2 <= 0 || k <= 0 || cols*k*8 <= l2 {
		return 0
	}
	return slabRule(a.Reuse(), cols, k, l2/2)
}

// slabRule is slabbed's inequality for a scan, at a budget.
func slabRule(u matrix.Reuse, cols, k, budget int) int {
	if !u.Sorted || u.Rows == 0 {
		return 0
	}
	width := max(1, budget/(k*8))
	passes := (cols + width - 1) / width
	cuts := min(u.Span/width, (passes-1)*u.Rows)
	if u.Pairs-2*u.Shared > 2*cuts {
		return budget
	}
	return 0
}
