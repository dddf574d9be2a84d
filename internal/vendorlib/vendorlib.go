// Package vendorlib is the suite's stand-in for the cuSPARSE library of the
// thesis' Study 7. It provides hand-tuned GPU-simulator SpMM kernels for
// the two formats cuSPARSE exposes that match the suite's (COO and CSR).
// The tuning is the standard vendor playbook:
//
//   - warp-per-row mapping with the 32 lanes spread across the k (B column)
//     dimension, so B and C accesses are perfectly coalesced;
//   - A's column index and value loaded once per nonzero as a uniform
//     (broadcast) load, not re-gathered for every output column;
//   - no atomics for CSR; COO uses per-row segments so atomics are only
//     needed at segment boundaries (modelled as one atomic pass per row
//     boundary).
//
// Against the naive "OpenMP offload" kernels in package gpusim, these win
// for the same structural reasons cuSPARSE won in the thesis. Both run on
// gpusim's launch scaffold (gpusim.Offload) and its one product loop
// (gpusim.Operands.MulAdd); only their warp bodies are theirs.
package vendorlib

import (
	"fmt"

	"repro/internal/formats"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// SpMM runs a's tuned kernel on the device and returns the modelled launch.
// C[:, :k] is overwritten. Only COO and CSR have one; any other format is a
// kernels.ErrSpec.
func SpMM(d *gpusim.Device, a formats.Sparse, b, c *matrix.Dense[float64], k int) (gpusim.LaunchResult, error) {
	var kern gpusim.Kernel
	switch a := a.(type) {
	case *formats.CSR[float64]:
		kern = gpusim.Kernel{Rows: a.Rows, Cols: a.Cols, Ptr: a.RowPtr, Idx: a.ColIdx, Vals: a.Vals,
			Threads: a.Rows * gpusim.WarpSize, Body: csrBody(a.Rows)}
	case *matrix.COO[float64]:
		nnz := a.NNZ()
		kern = gpusim.Kernel{Rows: a.Rows, Cols: a.Cols, Ptr: a.RowIdx, Idx: a.ColIdx, Vals: a.Vals,
			Threads: (nnz + segment - 1) / segment * gpusim.WarpSize, Body: cooBody(nnz)}
	default:
		return gpusim.LaunchResult{}, fmt.Errorf("%w: no vendor kernel for %T", kernels.ErrSpec, a)
	}
	return gpusim.Offload(d, kern, b, c, k)
}

// csrBody is the tuned warp-per-row CSR kernel: A's index and value are
// uniform loads, and the lanes tile the k dimension, so B and C accesses
// coalesce.
func csrBody(rows int) func(w *gpusim.Warp, o *gpusim.Operands) {
	return func(w *gpusim.Warp, o *gpusim.Operands) {
		row := w.GlobalWarp() // one warp per matrix row
		if row >= rows {
			return
		}
		k := o.K
		start := w.BroadcastI32(o.Ptr, int32(row), gpusim.FullMask)
		end := w.BroadcastI32(o.Ptr, int32(row)+1, gpusim.FullMask)
		crow := o.CRow(row)
		clear(crow)
		for p := start; p < end; p++ {
			// Uniform loads: every lane needs the same col/val.
			col := w.BroadcastI32(o.Idx, p, gpusim.FullMask)
			v := w.BroadcastF64(o.Vals, p, gpusim.FullMask)
			// Lanes tile the k dimension: perfectly coalesced B access.
			w.GatherF64Coalesced(o.B, col*int32(k), k, gpusim.FullMask)
			w.FMAN((k+gpusim.WarpSize-1)/gpusim.WarpSize, gpusim.FullMask)
			o.MulAdd(crow, v, col)
		}
		// One coalesced store of the row's accumulators.
		w.ScatterF64Coalesced(o.C, int32(row*k), k, gpusim.FullMask)
	}
}

// segment is the tuned COO kernel's nonzeros per warp.
const segment = 128

// cooBody is the tuned COO kernel: warps own contiguous nonzero segments
// (row-major sorted), lanes tile the k dimension, and partial row sums are
// flushed with an atomic only when the row changes within the segment —
// the segmented-reduction strategy of vendor COO kernels.
func cooBody(nnz int) func(w *gpusim.Warp, o *gpusim.Operands) {
	return func(w *gpusim.Warp, o *gpusim.Operands) {
		seg := w.GlobalWarp()
		lo := seg * segment
		if lo >= nnz {
			return
		}
		k := o.K
		hi := min(lo+segment, nnz)
		acc := make([]float64, k)
		curRow := int32(-1)
		flush := func(row int32) {
			if row < 0 {
				return
			}
			// Segment boundaries may split a row across warps, so the
			// flush must accumulate atomically (coalesced addresses).
			w.AtomicAddF64Coalesced(o.C, row*int32(k), k, gpusim.FullMask)
			crow := o.CRow(int(row))
			for j := range acc {
				crow[j] += acc[j]
				acc[j] = 0
			}
		}
		for p := lo; p < hi; p++ {
			row := w.BroadcastI32(o.Ptr, int32(p), gpusim.FullMask)
			col := w.BroadcastI32(o.Idx, int32(p), gpusim.FullMask)
			v := w.BroadcastF64(o.Vals, int32(p), gpusim.FullMask)
			if row != curRow {
				flush(curRow)
				curRow = row
			}
			w.GatherF64Coalesced(o.B, col*int32(k), k, gpusim.FullMask)
			w.FMAN((k+gpusim.WarpSize-1)/gpusim.WarpSize, gpusim.FullMask)
			o.MulAdd(acc, v, col)
		}
		flush(curRow)
	}
}
