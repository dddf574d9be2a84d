package parallel

import (
	"fmt"
	"sort"
)

// This file implements nonzero-balanced work partitioning — the merge-path
// family of schedules the SpMM/SpMV load-balancing literature (SELL-C-σ,
// merge-based CSR) uses to keep skewed matrices from serialising on their
// heavy rows. OpenMP static scheduling (ChunkBounds) gives every worker the
// same number of *rows*; BalancedBounds gives every worker the same number
// of *nonzeros*, reading the split points straight off a CSR-style prefix
// sum.

// BalancedBounds partitions the n = len(rowptr)-1 rows described by a
// CSR-style prefix-sum array into at most `chunks` contiguous chunks of
// near-equal nonzero count. The returned bounds have length cn+1 for cn
// effective chunks (cn <= chunks): chunk i covers rows
// [bounds[i], bounds[i+1]). Chunks are never empty, so a single row heavier
// than a fair share simply becomes its own chunk and the remaining rows are
// rebalanced around it.
//
// When the matrix has no stored entries, the split degenerates to the
// static ChunkBounds partition so row-wise work (zeroing the output) still
// parallelises.
func BalancedBounds(rowptr []int32, chunks int) []int {
	n := len(rowptr) - 1
	if n < 0 {
		panic("parallel: BalancedBounds on empty rowptr")
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks > n {
		chunks = max(n, 1)
	}
	total := int64(rowptr[n])
	bounds := make([]int, 1, chunks+1)
	if total == 0 {
		for w := 0; w < chunks; w++ {
			_, hi := ChunkBounds(n, chunks, w)
			if hi > bounds[len(bounds)-1] {
				bounds = append(bounds, hi)
			}
		}
		return bounds
	}
	for w := 1; w < chunks; w++ {
		target := int32(total * int64(w) / int64(chunks))
		// First row whose prefix sum passes the target: rows before it hold
		// <= target nonzeros.
		cut := sort.Search(n, func(i int) bool { return rowptr[i+1] > target })
		prev := bounds[len(bounds)-1]
		switch {
		case cut > prev:
			bounds = append(bounds, cut)
		case cut == prev:
			// Row `prev` alone overruns this share: it is a heavy row
			// spanning several fair shares. Close it into its own chunk so
			// the rows after it can still spread out.
			if prev+1 < n {
				bounds = append(bounds, prev+1)
			}
		default:
			// This share's boundary falls inside rows already assigned.
		}
	}
	if bounds[len(bounds)-1] != n {
		bounds = append(bounds, n)
	}
	return bounds
}

// ValidateBounds checks that bounds describe a partition of [0, n): strictly
// increasing, starting at 0 and ending at n. Kernel tests use it to pin the
// partition invariants the balanced schedules rely on.
func ValidateBounds(bounds []int, n int) error {
	if len(bounds) < 2 && n > 0 {
		return fmt.Errorf("parallel: bounds %v do not cover [0, %d)", bounds, n)
	}
	if n == 0 {
		return nil
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return fmt.Errorf("parallel: bounds %v endpoints, want 0 and %d", bounds, n)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return fmt.Errorf("parallel: bounds %v not strictly increasing at %d", bounds, i)
		}
	}
	return nil
}
