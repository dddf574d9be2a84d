package kernels

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// COO computes C[:, :k] = A × B[:, :k] with A in COO form, executed as s
// says. This is also the suite's verification kernel, as in the thesis
// (§4.3). A's triplets must be row-sorted — RowIdx non-decreasing — as
// formats.FromCOO("coo"), every ToCOO and the serving layer's canonical form
// leave them: the loop unit is the triplet, and each range of triplets
// writes the C rows it owns (cooRuns) once, with no zero pass. A parallel
// run splits the triplets at row boundaries, a partition that is
// nonzero-balanced by construction, so the schedule axis changes nothing
// and row-aligned chunks keep every Spec bitwise identical to the serial
// kernel.
func COO[T matrix.Float](a *matrix.COO[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	rg := cooTriplets[T]{a, b, c, k}
	// With no triplets there is nothing to split: the one empty range owns,
	// and writes, every row.
	if a.NNZ() == 0 {
		rg.rows(0, 0, whole)
		return nil
	}
	var bounds []int
	if s.Threads > 1 {
		bounds = cooRowPartition(a, s.Threads)
		obsNonzeros.Add(int64(a.NNZ()))
	}
	return walk(s, rowCOO, a.NNZ(), bounds, rg, a.Cols, k, slabbed(a, a.Cols, k))
}

// cooRuns is what triplet range [lo, hi) of a row-sorted A owns: the runs
// of equal RowIdx that start in it, triplets [p, q) — a run that crosses hi
// is finished past it — and C rows [r0, r1) = [rowAt(lo), rowAt(hi)), where
// rowAt(x) is the row of the first run starting at or after x, rowAt(0) = 0
// and rowAt(nnz) = Rows. Any split of [0, nnz) — the cancel-stride pieces,
// the row-aligned parallel bounds — so gives each C row to exactly one
// range. With no triplets, the one range [0, 0) owns every row.
func cooRuns[T matrix.Float](a *matrix.COO[T], lo, hi int) (p, q, r0, r1 int) {
	nnz := len(a.RowIdx)
	runStart := func(x int) int {
		for x > 0 && x < nnz && a.RowIdx[x] == a.RowIdx[x-1] {
			x++
		}
		return x
	}
	rowAt := func(x int) int {
		switch x {
		case 0:
			return 0
		case nnz:
			return a.Rows
		}
		return int(a.RowIdx[x])
	}
	p, q = runStart(lo), runStart(hi)
	r0, r1 = rowAt(p), rowAt(q)
	if nnz == 0 {
		r1 = a.Rows
	}
	return p, q, r0, r1
}

// cooTriplets is COO's range function: it writes, or for a later slab
// continues, the C rows triplets [lo, hi) own (cooRuns), one row-entry call
// per row: a row's triplets in the slab, a run of equal RowIdx, or in the
// first pass the empty run for a row without triplets, which writes zeros.
// A RowIdx that descends inside the range panics: unsorted triplets would
// write a row twice or never.
type cooTriplets[T matrix.Float] struct {
	a    *matrix.COO[T]
	b, c *matrix.Dense[T]
	k    int
}

func (t cooTriplets[T]) rows(lo, hi int, sl slab) {
	a := t.a
	p, end, r, r1 := cooRuns(a, lo, hi)
	for p < end {
		row := int(a.RowIdx[p])
		if row < r {
			panic(fmt.Sprintf("kernels: COO triplet %d in row %d after row %d: the triplets are not row-sorted", p, row, r-1))
		}
		q := p + 1
		if sl.lo == 0 {
			for q < end && a.RowIdx[q] == a.RowIdx[p] {
				q++
			}
		} else {
			q = rowEnd(a.RowIdx, p, end)
		}
		for ; r < row; r++ {
			t.empty(r, sl)
		}
		if s0, s1 := sl.cut(a.ColIdx, p, q-p, 1); s0 < s1 {
			matrix.AxpyRow(cRow(t.c, row, t.k), t.b, a.ColIdx[p+s0:p+s1], a.Vals[p+s0:p+s1], s0 > 0)
		}
		p, r = q, row+1
	}
	for ; r < r1; r++ {
		t.empty(r, sl)
	}
}

// rowEnd is the end of the run of RowIdx[p] in [p, end), found by
// doubling steps and then halving them: a later pass, which meets every
// triplet of a row again but hands the row entry only those in its slab,
// pays for the rows it walks, not their lengths. The first pass walks each
// run triplet by triplet, and so sees — and panics on — any descent.
func rowEnd(rowIdx []int32, p, end int) int {
	row, lo, step := rowIdx[p], p, 1
	for lo+step < end && rowIdx[lo+step] == row {
		lo += step
		step *= 2
	}
	hi := min(lo+step, end) // rowIdx[lo] == row; rowIdx[hi] != row, or hi == end
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if rowIdx[m] == row {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// empty writes the zeros of row r, which has no triplets, in the first pass.
func (t cooTriplets[T]) empty(r int, sl slab) {
	if sl.lo == 0 {
		matrix.AxpyRow(cRow(t.c, r, t.k), t.b, nil, nil, false)
	}
}

// cooRowPartition splits [0, nnz) into up to `threads` chunks whose
// boundaries fall on row boundaries, so concurrent workers never write the
// same C row. It requires a row-major sorted matrix. A row longer than a
// fair share simply makes its owner's chunk larger (the load imbalance the
// thesis observes for high-column-ratio matrices).
func cooRowPartition[T matrix.Float](a *matrix.COO[T], threads int) []int {
	nnz := a.NNZ()
	bounds := make([]int, 0, threads+1)
	bounds = append(bounds, 0)
	for w := 1; w < threads; w++ {
		_, cut := parallel.ChunkBounds(nnz, threads, w-1)
		// Advance the cut to the next row boundary.
		for cut < nnz && cut > 0 && a.RowIdx[cut] == a.RowIdx[cut-1] {
			cut++
		}
		if cut <= bounds[len(bounds)-1] {
			continue // previous chunk swallowed this one
		}
		bounds = append(bounds, cut)
	}
	if bounds[len(bounds)-1] != nnz {
		bounds = append(bounds, nnz)
	}
	return bounds
}
