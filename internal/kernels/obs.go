package kernels

import (
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Scheduling-layer metrics, exported to the process-wide registry. Every
// parallel dispatch (run) does a handful of atomic adds per call (never per
// row) — the per-format dispatch counters live on the lattice rows — plus,
// for CSR, an allocation-free walk of the row pointers to publish the chunk
// imbalance the chosen schedule produces — the live counterpart of the
// schedule study's imbalance tables.
var (
	obsRows = obs.NewCounter("spmm_kernels_rows_total",
		"Loop iterations (rows, block rows, slices or COO triplets) covered by parallel kernel dispatches.")
	obsNonzeros = obs.NewCounter("spmm_kernels_nonzeros_total",
		"Stored nonzeros covered by parallel kernel dispatches (formats with O(1) counts).")
	obsImbalance = obs.NewGauge("spmm_kernels_chunk_imbalance_ratio",
		"Nonzero imbalance of the last CSR dispatch: max chunk nnz over fair share (1 = perfectly balanced).")
)

func init() {
	obs.NewGaugeFunc("spmm_kernels_inner_vector",
		"Inner loop body of every kernel and the overlay: 1 = a vector body (AVX2, or AVX-512 for the row entry where the CPU has AVX-512F), 0 = scalar (no AVX2, not amd64, or a -race build).",
		func() float64 {
			if matrix.VectorInner() {
				return 1
			}
			return 0
		})
}

// recordCSRImbalance publishes the nonzero imbalance of the partition the
// dispatch is about to run: the heaviest chunk's nonzeros divided by the
// fair share nnz/chunks. bounds is nil for the static row partition.
func recordCSRImbalance(rowPtr []int32, rows, threads int, bounds []int) {
	nnz := int(rowPtr[rows])
	if nnz == 0 {
		obsImbalance.Set(1)
		return
	}
	var chunks int
	if bounds != nil {
		chunks = len(bounds) - 1
		if chunks < 1 {
			obsImbalance.Set(1)
			return
		}
	} else {
		chunks = threads
		if chunks < 1 {
			chunks = 1
		}
		if chunks > rows {
			chunks = max(rows, 1)
		}
	}
	var maxChunk int32
	for w := 0; w < chunks; w++ {
		var lo, hi int
		if bounds != nil {
			lo, hi = bounds[w], bounds[w+1]
		} else {
			lo, hi = parallel.ChunkBounds(rows, chunks, w)
		}
		if c := rowPtr[hi] - rowPtr[lo]; c > maxChunk {
			maxChunk = c
		}
	}
	obsImbalance.Set(float64(maxChunk) * float64(chunks) / float64(nnz))
}
