package formats

import (
	"sync"

	"repro/internal/parallel"
)

// This file attaches nonzero-balanced partition caches to the row-compressed
// formats. The balanced split points are a pure function of the format's
// prefix-sum array and the chunk count, so they are computed once — at
// Prepare time or on the first parallel Calculate — and reused by every
// subsequent call of a campaign. That keeps the binary-search cost (and its
// allocation) out of the steady-state kernel path, which the zero-allocation
// audit in internal/kernels pins.

// partitionCache memoizes balanced chunk bounds per chunk count. The zero
// value is ready to use; the cache is safe for concurrent readers.
type partitionCache struct {
	mu       sync.Mutex
	byChunks map[int][]int
}

// bounds returns the memoized balanced partition for `chunks`, computing it
// from the prefix-sum array on first use. Callers must not mutate the
// returned slice.
func (pc *partitionCache) bounds(rowptr []int32, chunks int) []int {
	if chunks < 1 {
		chunks = 1
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if b, ok := pc.byChunks[chunks]; ok {
		return b
	}
	if pc.byChunks == nil {
		pc.byChunks = make(map[int][]int, 4)
	}
	b := parallel.BalancedBounds(rowptr, chunks)
	pc.byChunks[chunks] = b
	return b
}

// BalancedBounds returns row chunk bounds of near-equal nonzero count for up
// to `chunks` workers, memoized per chunk count. The result follows the
// parallel.BalancedBounds contract; callers must not mutate it.
func (c *CSR[T]) BalancedBounds(chunks int) []int {
	return c.balanced.bounds(c.RowPtr, chunks)
}

// BalancedBounds returns block-row chunk bounds of near-equal stored-block
// count. Every block holds the same BR*BC slots, so equal blocks is equal
// arithmetic work. Memoized per chunk count; callers must not mutate the
// result.
func (b *BCSR[T]) BalancedBounds(chunks int) []int {
	return b.balanced.bounds(b.RowPtr, chunks)
}

// BalancedBounds returns slice chunk bounds of near-equal stored-element
// count, read off SlicePtr: padding included, which σ-sorting keeps a small
// share of a slice, so it stands in for the real elements the kernel walks.
// Memoized per chunk count; callers must not mutate the result.
func (s *SELLCS[T]) BalancedBounds(chunks int) []int {
	return s.balanced.bounds(s.SlicePtr, chunks)
}
