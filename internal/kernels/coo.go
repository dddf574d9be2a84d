package kernels

import (
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// COO computes C[:, :k] = A × B[:, :k] with A in COO form, executed as s
// says. This is also the suite's verification kernel, as in the thesis
// (§4.3). The loop unit is the triplet, so C is zeroed in a pass of its own
// first. A parallel run needs A sorted row-major (format conversion
// guarantees this): it splits the triplets at row boundaries, a partition
// that is nonzero-balanced by construction, so the schedule axis changes
// nothing and row-aligned chunks keep every Spec bitwise identical to the
// serial kernel. Under InnerTransB, b is Bᵀ.
func COO[T matrix.Float](a *matrix.COO[T], b, c *matrix.Dense[T], k int, s Spec) error {
	if err := check(rowCOO, s, a.Rows, a.Cols, b, c, k); err != nil {
		return err
	}
	inner := s.Inner
	if s.direct() {
		zeroK(c, k)
		cooRange(a, b, c, k, inner, 0, a.NNZ())
		return nil
	}
	if err := run(s, rowCOO, c.Rows, nil, func(lo, hi, _ int) { zeroKRows(c, k, lo, hi) }); err != nil {
		return err
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

// cooTriplets accumulates triplets [lo, hi) into C, one row-entry call per
// run of equal RowIdx. It adds to what C holds, so unsorted input (a row in
// several runs) and any split of the range stay correct.
func cooTriplets[T matrix.Float](a *matrix.COO[T], b, c *matrix.Dense[T], k, lo, hi int) {
	for p := lo; p < hi; {
		r := a.RowIdx[p]
		q := p + 1
		for q < hi && a.RowIdx[q] == r {
			q++
		}
		matrix.AxpyRow(panelRow(c, int(r), 0, k), b, 0, a.ColIdx[p:q], a.Vals[p:q])
		p = q
	}
}

// cooTripletsT is the transposed-B triplet loop: bt is the kb×n transpose
// of B. Study 8 measures whether transposed access to B pays off.
func cooTripletsT[T matrix.Float](a *matrix.COO[T], bt, c *matrix.Dense[T], k, lo, hi int) {
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
// row-aligned) slice of triplets and accumulates into a private copy of C
// (see replicated). It tolerates unsorted input.
func COOParallelReplicated[T matrix.Float](a *matrix.COO[T], b, c *matrix.Dense[T], k, threads int) error {
	if err := checkSpMM(a.Rows, a.Cols, b, c, k, false); err != nil {
		return err
	}
	replicated(c, k, a.NNZ(), threads, func(into *matrix.Dense[T], lo, hi int) {
		cooTriplets(a, b, into, k, lo, hi)
	})
	return nil
}
