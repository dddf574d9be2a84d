// Package advisor recommends a sparse format for a given matrix and
// execution environment from the matrix-property metrics the suite computes
// — the programme of the format-selection work the thesis surveys in its
// related-work chapter ([18], [9]: metric-driven and learned format
// selection, e.g. the "ELL ratio" rule) and of its own conclusions
// (§6.1–6.2: CSR/COO win serially, the blocked formats want parallel
// hardware and clustered nonzeros, one long row poisons any padded format).
//
// Two modes are provided: Recommend scores formats from properties alone
// (fast, no benchmarking), and Measure empirically benchmarks the
// candidates through the suite and reports the winner — the ground truth
// the heuristic approximates. The thesis' own caveat applies and is
// reproduced by the examples: "the data in our table presents an overly
// simplistic view" (§6.2), so Recommend is a prior, not an oracle.
package advisor

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// Environment is the execution setting a format is chosen for.
type Environment int

const (
	// SerialCPU is single-core execution.
	SerialCPU Environment = iota
	// ParallelCPU is multi-threaded execution.
	ParallelCPU
	// GPUEnv is SIMT (GPU) execution.
	GPUEnv
)

func (e Environment) String() string {
	switch e {
	case ParallelCPU:
		return "parallel-cpu"
	case GPUEnv:
		return "gpu"
	default:
		return "serial-cpu"
	}
}

// Features are the signals the advisor scores on: the Table 5.1 properties
// plus blocked-format-specific structure measures.
type Features struct {
	metrics.Properties
	// ELLOverhead is stored-slots/nonzeros for ELLPACK (1.0 = no padding).
	ELLOverhead float64
	// BCSRFill4 is the fill ratio of 4×4 blocks: how clustered the
	// nonzeros are at block granularity (1.0 = perfectly dense blocks).
	BCSRFill4 float64
	// Density is nnz/(rows*cols).
	Density float64
}

// Extract computes the advisor features for a matrix. It builds a 4×4 BCSR
// skeleton to measure block clustering, so it costs one pass over the
// nonzeros.
func Extract(m *matrix.COO[float64]) (Features, error) {
	p := metrics.Compute(m)
	f := Features{Properties: p, ELLOverhead: p.ELLOverhead()}
	if p.Rows > 0 && p.Cols > 0 {
		f.Density = float64(p.NNZ) / (float64(p.Rows) * float64(p.Cols))
	}
	b, err := formats.BCSRFromCOO(m, 4, 4)
	if err != nil {
		return Features{}, fmt.Errorf("advisor: %w", err)
	}
	f.BCSRFill4 = b.FillRatio()
	return f, nil
}

// Advice is one ranked recommendation. The JSON tags are part of the
// machine-readable output contract shared by `spmmadvise -json` and the
// serving layer's register response (see Report).
type Advice struct {
	// Format is the format family: "coo", "csr", "ell" or "bcsr".
	Format string `json:"format"`
	// Score is a unitless preference; higher is better. Scores are
	// comparable within one Recommend call only.
	Score float64 `json:"score"`
	// Reason explains the dominant factor in one sentence.
	Reason string `json:"reason"`
}

// Recommend ranks the four main formats for the environment, best first.
func Recommend(f Features, env Environment) []Advice {
	advice := []Advice{
		scoreCOO(f, env),
		scoreCSR(f, env),
		scoreELL(f, env),
		scoreBCSR(f, env),
	}
	sort.SliceStable(advice, func(i, j int) bool { return advice[i].Score > advice[j].Score })
	return advice
}

func scoreCSR(f Features, env Environment) Advice {
	// CSR is the robust default: compact, no padding, row-parallel.
	s := 1.0
	reason := "compact row-compressed baseline with no padding"
	if env == SerialCPU {
		s += 0.2 // §6.1: CSR generally best serially
		reason = "serial CPU favours the compact, cache-friendly row walk"
	}
	if f.Ratio > 8 {
		s += 0.3 // long rows bloat padded formats, CSR unaffected
		reason = "high column ratio: padded formats grow with the longest row, CSR does not"
	}
	return Advice{Format: "csr", Score: s, Reason: reason}
}

func scoreCOO(f Features, env Environment) Advice {
	// COO trails CSR slightly (bigger footprint) but partitions nonzeros
	// evenly, which pays off in parallel on irregular matrices (§5.3:
	// "On Arm, COO generally did the best in a parallel environment").
	s := 0.9
	reason := "simple triplets; slightly larger footprint than CSR"
	if env == ParallelCPU && f.Ratio > 4 {
		s += 0.45
		reason = "irregular rows: nonzero-partitioned COO balances threads better than row-partitioned formats"
	}
	return Advice{Format: "coo", Score: s, Reason: reason}
}

func scoreELL(f Features, env Environment) Advice {
	// ELL lives or dies by the padding overhead (the "ELL ratio" rule of
	// the related work) and only pays off on parallel hardware. The host
	// kernels stop at each row's stored length, so heavy padding no longer
	// costs work per multiply; it still costs the bytes the serving cache
	// holds and the time to build them, which is what the score keeps.
	s := 0.5
	reason := "fixed-width rows: only competitive on parallel hardware"
	switch {
	case f.ELLOverhead <= 1.3 && env != SerialCPU:
		s = 1.35
		reason = "uniform row lengths (low ELL overhead): perfectly balanced parallel work"
	case f.ELLOverhead <= 1.3:
		s = 0.95
		reason = "low padding, but serial CPUs gain nothing from the fixed shape"
	case f.ELLOverhead > 3:
		s = 0.1
		reason = fmt.Sprintf("padding overhead %.1fx: one long row multiplies the footprint and the conversion cost, not the per-multiply work", f.ELLOverhead)
	}
	return Advice{Format: "ell", Score: s, Reason: reason}
}

func scoreBCSR(f Features, env Environment) Advice {
	// BCSR needs clustered nonzeros (block fill) and parallel hardware;
	// serially it only pays when blocks are nearly dense (§6.1).
	s := 0.4
	reason := "blocked storage: needs clustered nonzeros and parallel hardware"
	switch {
	case f.BCSRFill4 >= 0.55 && env != SerialCPU:
		s = 1.4
		reason = fmt.Sprintf("dense 4x4 blocks (fill %.2f): block structure amortises index traffic", f.BCSRFill4)
	case f.BCSRFill4 >= 0.55:
		s = 1.1
		reason = fmt.Sprintf("dense 4x4 blocks (fill %.2f) keep even the serial kernel competitive", f.BCSRFill4)
	case f.BCSRFill4 >= 0.3 && env == ParallelCPU:
		s = 0.95
		reason = fmt.Sprintf("moderate block fill %.2f: worthwhile only with many threads", f.BCSRFill4)
	case f.BCSRFill4 < 0.15:
		s = 0.05
		reason = fmt.Sprintf("scattered nonzeros (fill %.2f): blocks are mostly padding", f.BCSRFill4)
	}
	return Advice{Format: "bcsr", Score: s, Reason: reason}
}

// RecommendSchedule advises between the parallel CPU kernels' two work
// partitions (the spmmbench -schedule flag): row-static chunking — the
// thesis' OpenMP-static baseline — or nonzero-balanced chunking. The signal
// is row-nonzero imbalance: under static chunking the wall clock is set by
// the worker that drew the heaviest rows, so a high Gini coefficient or
// column ratio means balanced scheduling recovers the idle time. On uniform
// matrices the two partitions coincide and static's zero setup cost wins.
func RecommendSchedule(f Features) Advice {
	switch {
	case f.Gini >= 0.5 || f.Ratio >= 16:
		return Advice{
			Format: "balanced",
			Score:  1.5,
			Reason: fmt.Sprintf("skewed rows (gini %.2f, max/avg %.1f): static chunking leaves workers idle behind the hub rows — run with -schedule=balanced", f.Gini, f.Ratio),
		}
	case f.Gini >= 0.3 || f.Ratio >= 8:
		return Advice{
			Format: "balanced",
			Score:  1.1,
			Reason: fmt.Sprintf("moderate row imbalance (gini %.2f, max/avg %.1f): -schedule=balanced likely helps at high thread counts", f.Gini, f.Ratio),
		}
	default:
		return Advice{
			Format: "static",
			Score:  1.0,
			Reason: fmt.Sprintf("near-uniform rows (gini %.2f): static chunking is already balanced and costs nothing", f.Gini),
		}
	}
}

// Measure benchmarks the four formats' kernels in the environment through
// the suite and returns the empirically best format with all results.
// For GPUEnv an Options.Device must be supplied.
func Measure(m *matrix.COO[float64], env Environment, p core.Params, opts core.Options) (string, []core.Result, error) {
	mode := "serial"
	switch env {
	case ParallelCPU:
		mode = "omp"
	case GPUEnv:
		mode = "gpu"
	}
	best, bestMF := "", -1.0
	var results []core.Result
	for _, format := range []string{"coo", "csr", "ell", "bcsr"} {
		k, err := core.New(format+"-"+mode, opts)
		if err != nil {
			return "", nil, err
		}
		r, err := core.Run(k, m, "advisor", p)
		if err != nil {
			return "", nil, err
		}
		results = append(results, r)
		if r.MFLOPS > bestMF {
			best, bestMF = format, r.MFLOPS
		}
	}
	return best, results, nil
}
