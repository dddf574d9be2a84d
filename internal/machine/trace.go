package machine

import (
	"fmt"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// This file replays the SpMM kernels as memory/compute traces: one trace
// per format, mirroring the access pattern of the format's range function
// in internal/kernels under either inner loop (kernels.Inner); array bases
// are spaced far apart so distinct arrays never share cache lines. Each
// trace covers a range [lo, hi) of its format's parallel loop, so the same
// function serves the serial simulation (the whole range) and the multicore
// model (one chunk per simulated thread).

const (
	baseRowPtr uint64 = 1 << 33
	baseRowIdx uint64 = 2 << 33
	baseColIdx uint64 = 3 << 33
	baseVals   uint64 = 4 << 33
	baseB      uint64 = 5 << 33
	baseBT     uint64 = 6 << 33
	baseC      uint64 = 8 << 33
)

// Result is the outcome of one simulated kernel execution.
type Result struct {
	Arch        string
	Seconds     float64
	Cycles      float64
	MFLOPS      float64
	MemMissRate float64
}

func resultFor(arch string, secs, cycles float64, nnz, k int, missRate float64) Result {
	flops := 2 * float64(nnz) * float64(k)
	mflops := 0.0
	if secs > 0 {
		mflops = flops / secs / 1e6
	}
	return Result{
		Arch:        arch,
		Seconds:     secs,
		Cycles:      cycles,
		MFLOPS:      mflops,
		MemMissRate: missRate,
	}
}

// LoadIrregular models a data-dependent (gather-style) access: a range
// load whose base address is unpredictable, so the stream prefetcher cannot
// cover it — every line of the range pays the profile's gather penalty on
// top of its hierarchy cost.
func (m *Machine) LoadIrregular(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	m.loadRangeDemand(addr, bytes)
	line := int(m.lineBytes())
	lines := (int(addr)%line + bytes + line - 1) / line
	m.cycles += m.prof.GatherPenalty * float64(lines)
}

// readB charges one nonzero's read of B row col (of n) under inner. Tiled,
// the whole k-wide row is one irregular load: its base is data-dependent.
// Transposed-B, the k loop walks a column of Bᵀ — k touches with a large
// constant stride, one cache line each. The stride is regular, so the
// touches price as streamed, but each one is its own line: roughly 8× the
// traffic of the row-contiguous kernel — the pattern that makes the
// transpose variant lose on most matrices (§5.10).
func readB(m *Machine, inner kernels.Inner, n, col, k int) {
	if inner == kernels.InnerTransB {
		for j := 0; j < k; j++ {
			m.LoadRange(baseBT+(uint64(j)*uint64(n)+uint64(col))*8, 8)
		}
		return
	}
	kb := k * 8
	m.LoadIrregular(baseB+uint64(col)*uint64(kb), kb)
}

// traceCOO replays triplets [lo, hi) of the COO kernel and returns the
// nonzeros processed.
func traceCOO(m *Machine, a *matrix.COO[float64], k int, inner kernels.Inner, lo, hi int) int {
	kb := k * 8
	for p := lo; p < hi; p++ {
		m.LoadScalar(baseRowIdx+uint64(p)*4, 4)
		m.LoadScalar(baseColIdx+uint64(p)*4, 4)
		m.LoadScalar(baseVals+uint64(p)*8, 8)
		readB(m, inner, a.Cols, int(a.ColIdx[p]), k)
		m.RMWRange(baseC+uint64(a.RowIdx[p])*uint64(kb), kb)
		m.FMA(k, k)
		m.Scalar(4)
	}
	return hi - lo
}

// traceCSR replays rows [lo, hi) of the CSR kernel. The transposed-B row
// carries no per-row bookkeeping charge.
func traceCSR(m *Machine, a *formats.CSR[float64], k int, inner kernels.Inner, lo, hi int) int {
	kb := k * 8
	nnz := 0
	for i := lo; i < hi; i++ {
		m.LoadScalar(baseRowPtr+uint64(i)*4, 4)
		if inner == kernels.InnerTiled {
			m.Scalar(2)
		}
		crow := baseC + uint64(i)*uint64(kb)
		m.StoreRange(crow, kb) // clear
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			m.LoadScalar(baseColIdx+uint64(p)*4, 4)
			m.LoadScalar(baseVals+uint64(p)*8, 8)
			readB(m, inner, a.Cols, int(a.ColIdx[p]), k)
			m.RMWRange(crow, kb)
			m.FMA(k, k)
			m.Scalar(3)
			nnz++
		}
	}
	return nnz
}

// traceELL replays rows [lo, hi) of the ELLPACK kernel. Padding slots cost
// their loads and loop bookkeeping but no FMA (the kernel's zero guard),
// reproducing ELL's padding overhead.
func traceELL(m *Machine, a *formats.ELL[float64], k int, inner kernels.Inner, lo, hi int) int {
	kb := k * 8
	nnz := 0
	for i := lo; i < hi; i++ {
		crow := baseC + uint64(i)*uint64(kb)
		m.StoreRange(crow, kb)
		for s := 0; s < a.Width; s++ {
			var idx int
			if a.Layout == formats.ColMajor {
				idx = s*a.Rows + i
			} else {
				idx = i*a.Width + s
			}
			m.LoadScalar(baseColIdx+uint64(idx)*4, 4)
			m.LoadScalar(baseVals+uint64(idx)*8, 8)
			m.Scalar(3)
			col, v := a.At(i, s)
			if v == 0 {
				continue // padding: guard branch skips the work
			}
			nnz++
			readB(m, inner, a.Cols, int(col), k)
			m.RMWRange(crow, kb)
			m.FMA(k, k)
		}
	}
	return nnz
}

// traceBCSR replays block rows [lo, hi) of the BCSR kernel as the
// register-blocked micro-kernel a blocked format is built for: per block,
// the dense br×bc values stream in contiguously and are applied
// branchlessly (padding zeros included — the blocked format's overhead),
// and each C row is touched once per block rather than once per nonzero.
// Tiled, only the block's *first* B row is an irregular access (the
// remaining bc−1 are consecutive and stream). The regular, L1-resident
// traffic is what lets BCSR behave differently across architectures than
// the gather-bound scalar formats.
func traceBCSR(m *Machine, a *formats.BCSR[float64], k int, inner kernels.Inner, lo, hi int) int {
	kb := k * 8
	nnz := 0
	br, bc := a.BR, a.BC
	for bri := lo; bri < hi; bri++ {
		m.LoadScalar(baseRowPtr+uint64(bri)*4, 4)
		m.Scalar(2)
		rowBase := bri * br
		rowLim := min(br, a.Rows-rowBase)
		for r := 0; r < rowLim; r++ {
			m.StoreRange(baseC+uint64(rowBase+r)*uint64(kb), kb)
		}
		for p := a.RowPtr[bri]; p < a.RowPtr[bri+1]; p++ {
			m.LoadScalar(baseColIdx+uint64(p)*4, 4)
			m.Scalar(4)
			colBase := int(a.ColIdx[p]) * bc
			colLim := min(bc, a.Cols-colBase)
			for _, v := range a.Block(int(p)) {
				if v != 0 {
					nnz++
				}
			}
			// Dense block values stream contiguously.
			m.LoadRange(baseVals+uint64(int(p)*br*bc)*8, br*bc*8)
			for cc := 0; cc < colLim; cc++ {
				if cc > 0 && inner == kernels.InnerTiled {
					m.LoadRange(baseB+uint64(colBase+cc)*uint64(kb), kb)
					continue
				}
				readB(m, inner, a.Cols, colBase+cc, k)
			}
			// Branchless micro-kernel: padding multiplies too. The
			// compile-time block width is the natural vector length
			// (the thesis' template trick makes it a constant).
			scalar := 3 * colLim
			if inner == kernels.InnerTransB {
				scalar = colLim
			}
			for r := 0; r < rowLim; r++ {
				m.RMWRange(baseC+uint64(rowBase+r)*uint64(kb), kb)
				m.FMA(colLim*k, colLim)
				m.Scalar(scalar)
			}
		}
	}
	return nnz
}

// traceTransposeB charges the blocked transposition of the n×k dense B
// into Bᵀ: every element is read and written once, with the stores
// scattering across Bᵀ rows (line-granularity captured by the cache sim).
func traceTransposeB(m *Machine, n, k int) {
	const bs = 32
	for jj := 0; jj < k; jj += bs {
		jEnd := min(jj+bs, k)
		for ii := 0; ii < n; ii += bs {
			iEnd := min(ii+bs, n)
			for i := ii; i < iEnd; i++ {
				m.LoadRange(baseB+uint64(i*k+jj)*8, (jEnd-jj)*8)
			}
			for j := jj; j < jEnd; j++ {
				m.StoreRange(baseBT+uint64(j*n+ii)*8, (iEnd-ii)*8)
			}
			m.Scalar((iEnd - ii) * (jEnd - jj))
		}
	}
}

// model is one prepared matrix as the simulator sees it: its trace under
// one inner loop and the range that trace is split over.
type model struct {
	trace chunkTrace
	// n is the parallel loop's length: triplets for COO, rows for CSR and
	// ELL, block rows for BCSR.
	n int
	// cols is B's row count, what the transposed-B variant transposes.
	cols int
	// rowPtr, when non-nil, is the nonzero prefix sum a balanced schedule
	// splits (CSR only).
	rowPtr []int32
}

// modelFor switches on a's concrete type, as kernels.Multiply does. Formats
// without a trace are a kernels.ErrSpec.
func modelFor(a formats.Sparse, k int, inner kernels.Inner) (model, error) {
	switch a := a.(type) {
	case *matrix.COO[float64]:
		return model{func(m *Machine, lo, hi int) int { return traceCOO(m, a, k, inner, lo, hi) },
			a.NNZ(), a.Cols, nil}, nil
	case *formats.CSR[float64]:
		return model{func(m *Machine, lo, hi int) int { return traceCSR(m, a, k, inner, lo, hi) },
			a.Rows, a.Cols, a.RowPtr}, nil
	case *formats.ELL[float64]:
		return model{func(m *Machine, lo, hi int) int { return traceELL(m, a, k, inner, lo, hi) },
			a.Rows, a.Cols, nil}, nil
	case *formats.BCSR[float64]:
		return model{func(m *Machine, lo, hi int) int { return traceBCSR(m, a, k, inner, lo, hi) },
			a.BlockRows, a.Cols, nil}, nil
	}
	return model{}, fmt.Errorf("%w: no cost model for %T", kernels.ErrSpec, a)
}

// Simulate replays the serial SpMM kernel of a's format under inner for k
// output columns on one core of prof. The transposed-B variant includes the
// cost of transposing B (Study 8 charges it against the kernel).
func Simulate(prof Profile, a formats.Sparse, k int, inner kernels.Inner) (Result, error) {
	m, err := New(prof)
	if err != nil {
		return Result{}, err
	}
	if k < 0 {
		return Result{}, fmt.Errorf("machine: negative k")
	}
	md, err := modelFor(a, k, inner)
	if err != nil {
		return Result{}, err
	}
	if inner == kernels.InnerTransB {
		traceTransposeB(m, md.cols, k)
	}
	nnz := md.trace(m, 0, md.n)
	m.flushObs()
	return resultFor(prof.Name, m.Seconds(), m.Cycles(), nnz, k, m.MemMissRate()), nil
}
