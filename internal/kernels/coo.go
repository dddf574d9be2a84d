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
// kernel. Under InnerTransB, b is Bᵀ.
func COO[T matrix.Float](a *matrix.COO[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowCOO, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	inner := s.Inner
	// With no triplets there is nothing to split: the one empty range owns,
	// and writes, every row.
	if s.direct() || a.NNZ() == 0 {
		cooRange(a, b, c, k, inner, 0, a.NNZ())
		return nil
	}
	var bounds []int
	if s.Threads > 1 {
		bounds = cooRowPartition(a, s.Threads)
		obsNonzeros.Add(int64(a.NNZ()))
	}
	return run(s, rowCOO, a.NNZ(), bounds, func(lo, hi, _ int) {
		cooRange(a, b, c, k, inner, lo, hi)
	})
}

// cooRange runs the range function inner selects over triplets [lo, hi).
func cooRange[T matrix.Float](a *matrix.COO[T], b, c *matrix.Dense[T], k int, inner Inner, lo, hi int) {
	if inner == InnerTransB {
		cooTripletsT(a, b, c, k, lo, hi)
	} else {
		cooTriplets(a, b, c, k, lo, hi)
	}
}

// cooRuns is what triplet range [lo, hi) of a row-sorted A owns: the runs
// of equal RowIdx that start in it, triplets [p, q) — a run that crosses hi
// is finished past it — and C rows [r0, r1) = [rowAt(lo), rowAt(hi)), where
// rowAt(x) is the row of the first run starting at or after x, rowAt(0) = 0
// and rowAt(nnz) = Rows. Any split of [0, nnz) — the cancel-stride pieces,
// the row-aligned parallel bounds, the replicated ablation's arbitrary
// chunks — so gives each C row to exactly one range. With no triplets, the
// one range [0, 0) owns every row.
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

// cooTriplets writes the C rows triplets [lo, hi) own (cooRuns), one
// row-entry call per row: a run of equal RowIdx, or the empty run for a row
// without triplets, which writes zeros. A RowIdx that descends inside the
// range panics: unsorted triplets would write a row twice or never.
func cooTriplets[T matrix.Float](a *matrix.COO[T], b, c *matrix.Dense[T], k, lo, hi int) {
	p, end, r, r1 := cooRuns(a, lo, hi)
	for p < end {
		row := int(a.RowIdx[p])
		if row < r {
			panic(fmt.Sprintf("kernels: COO triplet %d in row %d after row %d: the triplets are not row-sorted", p, row, r-1))
		}
		q := p + 1
		for q < end && a.RowIdx[q] == a.RowIdx[p] {
			q++
		}
		for ; r < row; r++ {
			matrix.AxpyRow(panelRow(c, r, 0, k), b, 0, nil, nil)
		}
		matrix.AxpyRow(panelRow(c, row, 0, k), b, 0, a.ColIdx[p:q], a.Vals[p:q])
		p, r = q, row+1
	}
	for ; r < r1; r++ {
		matrix.AxpyRow(panelRow(c, r, 0, k), b, 0, nil, nil)
	}
}

// cooTripletsT is the transposed-B triplet loop: bt is the kb×n transpose
// of B. It zeroes the C rows triplets [lo, hi) own (cooRuns), then
// accumulates their runs one triplet at a time. Study 8 measures whether
// transposed access to B pays off.
func cooTripletsT[T matrix.Float](a *matrix.COO[T], bt, c *matrix.Dense[T], k, lo, hi int) {
	lo, hi, r0, r1 := cooRuns(a, lo, hi)
	zeroKRows(c, k, r0, r1)
	for p := lo; p < hi; p++ {
		r := int(a.RowIdx[p])
		col := int(a.ColIdx[p])
		v := a.Vals[p]
		crow := c.Data[r*c.Stride : r*c.Stride+k]
		for j := range crow {
			crow[j] += v * bt.Data[j*bt.Stride+col]
		}
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

// COOParallelReplicated is the ablation alternative to COO's row-aligned
// partition, outside the lattice: each worker takes an arbitrary (not
// row-aligned) slice of triplets and writes the rows that slice owns into a
// private copy of C (see replicated). A must be row-sorted, as for COO.
func COOParallelReplicated[T matrix.Float](a *matrix.COO[T], b, c *matrix.Dense[T], k, threads int) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k, false); err != nil {
		return err
	}
	replicated(c, k, a.NNZ(), threads, func(into *matrix.Dense[T], lo, hi int) {
		cooTriplets(a, b, into, k, lo, hi)
	})
	return nil
}
