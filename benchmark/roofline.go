package main

import (
	"fmt"
	"sync"
	"time"
)

// The roofline denominator and the computed-bytes model, in one place.
//
// Denominator. machine.triad_gbs is a STREAM-style triad a[i] = b[i] + s*c[i]
// over three float64 arrays, each sized to 4x cpu0's last-level cache so the
// arrays cannot be cache-resident, run on nproc goroutines; the best of three
// passes counts 24 bytes per element (two reads, one write; the write-allocate
// read is ignored, as STREAM does). When three such arrays do not fit in a
// quarter of MemAvailable the triad is not run, and the ledger reports
// kernels.ai_flop_per_byte.* without kernels.roofline_frac.*: a cache-resident
// "bandwidth" is worse than none.
//
// Computed bytes of one Calculate (all formats, float64 values, int32
// indices; cache misses and re-reads of B are ignored, so this is a lower
// bound on traffic and the figures are labelled computed):
//
//	bytes = Kernel.Bytes()      the format's stored arrays, streamed once
//	      + cols * k * 8        the B panel, read once
//	      + rows * k * 8        the C panel, written once
//
// Kernel.Bytes() is the exact footprint per format, which is where the
// formats differ:
//
//	coo     nnz * (8 + 4 + 4)                          value, row, column
//	csr     nnz * (8 + 4) + (rows+1) * 4               value, column; row pointer
//	ell     rows * maxRow * (8 + 4)                    every row padded to the longest
//	bcsr    blocks * (b*b*8 + 4) + (rows/b + 1) * 4    dense b x b blocks (b = 4), block column; block-row pointer
//	bell    (rows/b) * maxBlocks * (b*b*8 + 4)         block rows padded to the longest
//	sellcs  padded * (8 + 4) + rows * 4 + slices * 8   rows sorted in windows, padded per slice of C rows; permutation; slice pointer and width
//
// Arithmetic intensity is 2*nnz*k / bytes (flop per byte); the achieved
// bandwidth of a cell is bytes / median Calculate; roofline_frac is that over
// the triad. The kernel-sweep working set fits this host's L3, so a fraction
// above 1 means the kernel ran from cache, not that the model is wrong.

// computedBytes is the model above for one Calculate.
func computedBytes(formatBytes, rows, cols, k int) float64 {
	return float64(formatBytes) + float64(cols)*float64(k)*8 + float64(rows)*float64(k)*8
}

// triadPlan sizes the triad arrays from the host description. ok is false
// when the caches are unknown or the arrays would not fit.
func triadPlan(e envInfo, shrink float64) (elems int, ok bool, note string) {
	if e.LLCBytes == 0 {
		return 0, false, "last-level cache size unknown (/sys cache description absent)"
	}
	arrayBytes := int64(float64(4*e.LLCBytes) * shrink)
	if e.MemAvailableBytes == 0 || 3*arrayBytes > e.MemAvailableBytes/4 {
		return 0, false, fmt.Sprintf("3 arrays of %d MiB (4x LLC %d MiB) exceed a quarter of MemAvailable %d MiB",
			arrayBytes>>20, e.LLCBytes>>20, e.MemAvailableBytes>>20)
	}
	return int(arrayBytes / 8), true, fmt.Sprintf("3 arrays of %d MiB each = 4x LLC %d MiB",
		arrayBytes>>20, e.LLCBytes>>20)
}

// triadGBs runs the triad and returns the best pass in GB/s.
func triadGBs(elems, threads int) float64 {
	a, b, c := make([]float64, elems), make([]float64, elems), make([]float64, elems)
	forChunks := func(body func(lo, hi int)) {
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			lo, hi := elems*t/threads, elems*(t+1)/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(lo, hi)
			}()
		}
		wg.Wait()
	}
	// First touch in the thread that will stream the chunk.
	forChunks(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		forChunks(func(lo, hi int) {
			x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range x {
				x[i] = y[i] + 3*z[i]
			}
		})
		if gbs := 24 * float64(elems) / time.Since(start).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	return best
}
