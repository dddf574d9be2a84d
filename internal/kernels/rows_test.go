package kernels

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// rowCanary is what C holds before every call below: a NaN whose payload no
// product carries. The row entry writes C without reading it, and a kernel
// hands every row it owns to the row entry, empty rows included, so none may
// survive; serving leases C unzeroed, and a row a kernel skipped would hand
// the previous request's data to the next.
var rowCanary = math.Float64frombits(0x7ff80000deadbeef)

func canaryDense(rows, cols int) *matrix.Dense[float64] {
	c := matrix.NewDense[float64](rows, cols)
	for i := range c.Data {
		c.Data[i] = rowCanary
	}
	return c
}

// csrSerialRef is csr-serial's C for coo, under the Go body.
func csrSerialRef(t *testing.T, coo *matrix.COO[float64], b *matrix.Dense[float64], k int) *matrix.Dense[float64] {
	t.Helper()
	live := vectorInner
	defer func() { vectorInner = live }()
	vectorInner = 0
	ref := matrix.NewDense[float64](coo.Rows, k)
	if err := CSR(formats.CSRFromCOO(coo.Clone()), b, ref, k, Spec{}); err != nil {
		t.Fatal(err)
	}
	return ref
}

// requireBitwise fails unless got holds ref's bits in all of its k columns.
func requireBitwise(t *testing.T, name string, got, ref *matrix.Dense[float64]) {
	t.Helper()
	for i := 0; i < ref.Rows; i++ {
		for j := 0; j < ref.Cols; j++ {
			if g, w := got.At(i, j), ref.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: C[%d,%d] = %v (%#x), csr-serial %v (%#x)", name, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// gapsCOO is a 22×19 matrix whose rows 0 (the first), 6–8 (a whole block row
// at block edge 3, in the middle) and 21 (the last) are empty. Its 17 other
// rows fill two slices of eight SELL-C-σ lanes and one lane of the third,
// whose five other lanes are empty.
func gapsCOO() *matrix.COO[float64] {
	m := matrix.NewCOO[float64](22, 19, 0)
	rng := rand.New(rand.NewSource(5))
	for i := int32(1); i < 21; i++ {
		if i >= 6 && i <= 8 {
			continue
		}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			m.Append(i, int32(rng.Intn(19)), rng.NormFloat64())
		}
	}
	m.Dedup()
	return m
}

// TestEveryRowWritten runs every variant — the lattice points, which
// include every servable one, and the inner-parallel ablation — under every
// level on a C that starts as the canary, at k = 1, 5, 32, 128 and 181 (32
// and 128 are each exactly one tile of the row entry, the widest under AVX2
// and under AVX-512, with no tail after it; 181 = 128 + 32 + 16 + 4 + 1 runs
// every tile in one row entry call), and requires csr-serial's bits in every
// row: on gapsCOO and on a matrix with no nonzeros at all.
func TestEveryRowWritten(t *testing.T) {
	pool := parallel.NewPool(sweepThreads)
	defer pool.Close()
	points := retiredSpellings(t, Variants())
	for _, v := range Variants() {
		points = append(points, retiredPoint{v.Name, v})
	}
	for class, coo := range map[string]*matrix.COO[float64]{"gaps": gapsCOO(), "all-zero": matrix.NewCOO[float64](22, 19, 0)} {
		for _, k := range []int{1, 5, 32, 128, 181} {
			in := NewVariantInput(coo, k, sweepThreads, 3, 9)
			in.Pool = pool
			ref := csrSerialRef(t, coo, in.B, k)
			for _, p := range points {
				v := p.now
				t.Run(fmt.Sprintf("%s/k=%d/%s", class, k, p.name), func(t *testing.T) {
					eachInner(t, func(t *testing.T) {
						out := canaryDense(coo.Rows, k)
						if err := v.Run(in, out); err != nil {
							t.Fatal(err)
						}
						requireBitwise(t, v.Name, out, ref)
					})
				})
			}
		}
	}
	sell, err := formats.SELLCSFromCOO(gapsCOO(), formats.SELLC, formats.SELLSigma)
	if err != nil {
		t.Fatal(err)
	}
	if got := sell.RowLen[2*sell.C : 2*sell.C+6]; got[0] == 0 || got[1] != 0 {
		t.Fatalf("fixture: the third slice's lanes hold %v pairs, want one lane with pairs and empty ones", got)
	}
}

// splitsCOO is a 12×9 matrix with long runs and empty rows between them:
// rows 0, 2–4, 7–9 and 11 are empty.
func splitsCOO() *matrix.COO[float64] {
	m := matrix.NewCOO[float64](12, 9, 0)
	for _, run := range []struct{ row, n int }{{1, 9}, {5, 7}, {6, 1}, {10, 8}} {
		for j := 0; j < run.n; j++ {
			m.Append(int32(run.row), int32(j), float64(run.row)-float64(j)/4)
		}
	}
	return m
}

// TestCOOSplits runs the triplet walk over [0, lo), [lo, hi) and [hi, nnz)
// for every 0 <= lo <= hi <= nnz of splitsCOO: each range on its own canary
// C must write a set of rows disjoint from the other two's, together every
// row; all three on one C must leave csr-serial's bits.
func TestCOOSplits(t *testing.T) {
	coo := splitsCOO()
	nnz := coo.NNZ()
	eachInner(t, func(t *testing.T) {
		for _, k := range []int{3, 33} {
			b := matrix.NewDenseRand[float64](coo.Cols, k, 4)
			ref := csrSerialRef(t, coo, b, k)
			walk := func(c *matrix.Dense[float64], lo, hi int) { cooTriplets[float64]{coo, b, c, k}.rows(lo, hi, whole) }
			for lo := 0; lo <= nnz; lo++ {
				for hi := lo; hi <= nnz; hi++ {
					name := fmt.Sprintf("k=%d split %d,%d", k, lo, hi)
					ranges := [][2]int{{0, lo}, {lo, hi}, {hi, nnz}}
					owner := make([]int, coo.Rows)
					for i := range owner {
						owner[i] = -1
					}
					for r, rg := range ranges {
						c := canaryDense(coo.Rows, k)
						walk(c, rg[0], rg[1])
						for i := 0; i < coo.Rows; i++ {
							if math.Float64bits(c.At(i, 0)) == math.Float64bits(rowCanary) {
								continue
							}
							if owner[i] >= 0 {
								t.Fatalf("%s: row %d written by ranges %v and %v", name, i, ranges[owner[i]], rg)
							}
							owner[i] = r
						}
					}
					for i, r := range owner {
						if r < 0 {
							t.Fatalf("%s: row %d written by no range", name, i)
						}
					}
					c := canaryDense(coo.Rows, k)
					for _, rg := range ranges {
						walk(c, rg[0], rg[1])
					}
					requireBitwise(t, name, c, ref)
				}
			}
		}
	})
}

// TestCOOCancelStridePieces: with a context the triplets run in pieces of
// cancelStride. Here the piece boundary at triplet cancelStride falls inside
// a run, and the last piece is short — the end of that run, empty rows, one
// more run and the trailing empty rows — serial and parallel.
func TestCOOCancelStridePieces(t *testing.T) {
	const rows, cols, k = 90, 40, 7
	coo := matrix.NewCOO[float64](rows, cols, 0)
	row := int32(1)
	for coo.NNZ() < cancelStride-3 {
		n := min(37, cancelStride-3-coo.NNZ())
		for j := 0; j < n; j++ {
			coo.Append(row, int32(j), float64(row)+float64(j)/64)
		}
		row += 1 + row%3 // empty rows between some runs
	}
	for j := 0; j < 7; j++ { // the run that crosses the piece boundary
		coo.Append(row, int32(j), -float64(j))
	}
	for j := 0; j < 4; j++ {
		coo.Append(row+5, int32(2*j), float64(j))
	}
	if n := coo.NNZ(); n <= cancelStride || n-cancelStride > 16 || coo.RowIdx[cancelStride] != coo.RowIdx[cancelStride-1] || int(row)+5 >= rows-1 {
		t.Fatalf("fixture: %d triplets, row %d at triplet %d and %d at %d, last run in row %d of %d",
			n, coo.RowIdx[cancelStride-1], cancelStride-1, coo.RowIdx[cancelStride], cancelStride, row+5, rows)
	}
	b := matrix.NewDenseRand[float64](cols, k, 8)
	ref := csrSerialRef(t, coo, b, k)
	pool := parallel.NewPool(3)
	defer pool.Close()
	eachInner(t, func(t *testing.T) {
		for _, threads := range []int{1, 3} {
			c := canaryDense(rows, k)
			s := Spec{Threads: threads, Ctx: context.Background(), Pool: pool}
			if err := COO(coo, b, c, k, s); err != nil {
				t.Fatal(err)
			}
			requireBitwise(t, fmt.Sprintf("threads=%d", threads), c, ref)
		}
	})
}

// TestCOOUnsortedPanics: the triplet walk writes each row once and so
// needs row-sorted triplets; a row that comes back after a later one
// panics rather than leave a row unwritten or written twice. In parallel
// the panic comes from a pool participant and is recovered on the caller.
func TestCOOUnsortedPanics(t *testing.T) {
	coo := matrix.NewCOO[float64](4, 3, 0)
	coo.Append(2, 0, 1)
	coo.Append(0, 1, 2)
	// Every row descends, so each piece of a parallel region that holds
	// two triplets writes one row and then sees a row come back.
	const n = 128
	reversed := matrix.NewCOO[float64](n, 3, n)
	for i := 0; i < n; i++ {
		reversed.Append(int32(n-1-i), int32(i%3), 1)
	}
	b := matrix.NewDenseRand[float64](3, 2, 1)
	for _, tc := range []struct {
		name string
		coo  *matrix.COO[float64]
		s    Spec
	}{
		{"serial", coo, Spec{}},
		{"parallel", reversed, Spec{Threads: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "not row-sorted") {
					t.Fatalf("panic %q, want one saying the triplets are not row-sorted", msg)
				}
			}()
			_ = COO(tc.coo, b, canaryDense(tc.coo.Rows, 2), 2, tc.s)
		})
	}
}
