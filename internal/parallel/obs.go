package parallel

import "repro/internal/obs"

// Dispatch counters, exported to the process-wide metrics registry. Each
// fork/join region does three atomic adds at entry — never per chunk
// or piece and never inside body — so the package's no-alloc dispatch
// contract and the kernels' allocation audit are unaffected.
var (
	obsRegions = obs.NewCounter("spmm_parallel_regions_total",
		"Fork/join regions dispatched.")
	obsChunks = obs.NewCounter("spmm_parallel_chunks_total",
		"Chunks dispatched across all regions; a pooled region counts its chunks, not the pieces it cuts them into.")
	obsItems = obs.NewCounter("spmm_parallel_items_total",
		"Loop iterations (rows/triplets/slices) covered by dispatched regions.")
)

// countRegion records one region of `chunks` chunks over `items` iterations.
func countRegion(chunks, items int) {
	obsRegions.Inc()
	obsChunks.Add(int64(chunks))
	obsItems.Add(int64(items))
}

// boundsItems returns the iteration count a bounds slice covers.
func boundsItems(bounds []int) int {
	if len(bounds) < 2 {
		return 0
	}
	return bounds[len(bounds)-1] - bounds[0]
}
