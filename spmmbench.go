// Package spmmbench is the public facade of the SpMM benchmark suite — a Go
// reproduction of "SpMM-Bench: Performance Characterization of Sparse
// Formats for Sparse-Dense Matrix Multiplication" (Flynn, 2024).
//
// The facade re-exports the pieces a downstream user needs: the COO/dense
// matrix types, the sparse formats (CSR, ELLPACK, BCSR, and the future-work
// BELL and SELL-C-σ formats), the SpMM kernels (SpMV is Params.K = 1 through
// the same ones), MatrixMarket I/O, the benchmark runner with its kernel
// registry, the calibrated synthetic matrix generators, and the study
// harness that regenerates every table and figure of the thesis' evaluation.
//
// Quick start:
//
//	a, _, err := spmmbench.GenerateMatrix("cant", 0.1)
//	if err != nil { ... }
//	kernel, err := spmmbench.NewKernel("csr-omp", spmmbench.KernelOptions{})
//	if err != nil { ... }
//	res, err := spmmbench.RunBenchmark(kernel, a, "cant", spmmbench.DefaultParams())
//	fmt.Printf("%.1f MFLOPS\n", res.MFLOPS)
//
// The runnable examples under examples/ and the four commands under cmd/
// exercise the full surface.
package spmmbench

import (
	"io"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/mmio"
	"repro/internal/studies"
)

// Matrix types.
type (
	// COO is the coordinate-format sparse matrix, the suite's base format.
	COO = matrix.COO[float64]
	// Dense is a row-major dense matrix.
	Dense = matrix.Dense[float64]
	// CSR is the compressed sparse row format.
	CSR = formats.CSR[float64]
	// ELL is the ELLPACK format.
	ELL = formats.ELL[float64]
	// BCSR is the block compressed sparse row format.
	BCSR = formats.BCSR[float64]
	// BELL is the Blocked-ELLPACK format.
	BELL = formats.BELL[float64]
	// SELLCS is the SELL-C-σ sliced format.
	SELLCS = formats.SELLCS[float64]
	// Properties are the Table 5.1 matrix metrics.
	Properties = metrics.Properties
)

// Benchmark suite types.
type (
	// Kernel is the interface every benchmarked kernel implements.
	Kernel = core.Kernel
	// Mode classifies a kernel's execution environment.
	Mode = core.Mode
	// Params are the suite's runtime parameters (reps, threads, block
	// size, k, thread list).
	Params = core.Params
	// Result is one benchmark outcome.
	Result = core.Result
	// KernelOptions carries shared kernel resources (the GPU device).
	KernelOptions = core.Options
	// GPUDevice is a simulated GPU.
	GPUDevice = gpusim.Device
	// StudyConfig configures the study harness.
	StudyConfig = studies.Config
	// StudySection is one titled output table of a study.
	StudySection = studies.Section
)

// NewCOO returns an empty rows×cols COO matrix with the given capacity.
func NewCOO(rows, cols, capacity int) *COO { return matrix.NewCOO[float64](rows, cols, capacity) }

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense { return matrix.NewDense[float64](rows, cols) }

// NewDenseRand returns a deterministic pseudo-random dense matrix.
func NewDenseRand(rows, cols int, seed int64) *Dense {
	return matrix.NewDenseRand[float64](rows, cols, seed)
}

// ToCSR converts a COO matrix to CSR.
func ToCSR(m *COO) *CSR { return formats.CSRFromCOO(m) }

// ToELL converts a COO matrix to row-major ELLPACK.
func ToELL(m *COO) *ELL { return formats.ELLFromCOO(m, formats.RowMajor) }

// ToBCSR converts a COO matrix to BCSR with square blocks of the given size.
func ToBCSR(m *COO, block int) (*BCSR, error) { return formats.BCSRFromCOO(m, block, block) }

// ComputeProperties derives the Table 5.1 metrics of a matrix.
func ComputeProperties(m *COO) Properties { return metrics.Compute(m) }

// ReadMatrixMarket parses a MatrixMarket stream into COO form.
func ReadMatrixMarket(r io.Reader) (*COO, error) { return mmio.ReadCOO[float64](r) }

// WriteMatrixMarket writes a COO matrix in MatrixMarket format.
func WriteMatrixMarket(w io.Writer, m *COO) error { return mmio.WriteCOO(w, m) }

// MatrixNames lists the 14 calibrated evaluation matrices (Table 5.1).
func MatrixNames() []string { return gen.Names() }

// GenerateMatrix synthesises one of the calibrated evaluation matrices at
// the given scale factor in (0, 1], returning the matrix and its Table 5.1
// properties.
func GenerateMatrix(name string, scale float64) (*COO, Properties, error) {
	m, _, err := gen.GenerateScaled(name, scale)
	if err != nil {
		return nil, Properties{}, err
	}
	return m, metrics.Compute(m), nil
}

// KernelNames lists the registered benchmark kernels.
func KernelNames() []string { return core.Names() }

// NewKernel builds a kernel by registry name ("csr-omp", "bcsr-serial",
// "vendor-csr-gpu", ...).
func NewKernel(name string, o KernelOptions) (Kernel, error) { return core.New(name, o) }

// NewGPUDevice builds the simulated GPU of the thesis' Arm machine
// (H100-like) or, with aries=true, its x86 machine (A100-like).
func NewGPUDevice(aries bool) (*GPUDevice, error) {
	cfg := gpusim.H100Like()
	if aries {
		cfg = gpusim.A100Like()
	}
	return gpusim.NewDevice(cfg)
}

// DefaultParams returns the thesis evaluation defaults: k=128, 32 threads,
// block size 4 (§5.1).
func DefaultParams() Params { return core.DefaultParams() }

// RunBenchmark benchmarks one kernel on one matrix with warm-up, timed
// repetitions, and COO-reference verification.
func RunBenchmark(k Kernel, a *COO, name string, p Params) (Result, error) {
	return core.Run(k, a, name, p)
}

// BestThreads sweeps p.ThreadList and returns the index of the winner plus
// all per-count results (the Study 3.1 feature).
func BestThreads(k Kernel, a *COO, name string, p Params) (int, []Result, error) {
	return core.BestThreads(k, a, name, p)
}

// StudyIDs lists the evaluation study identifiers ("props", "1" … "9").
func StudyIDs() []string { return studies.All() }

// DefaultStudyConfig returns a configuration that completes the full study
// suite in minutes.
func DefaultStudyConfig() StudyConfig { return studies.DefaultConfig() }

// RunStudy regenerates one of the thesis' evaluation studies.
func RunStudy(id string, cfg StudyConfig) ([]StudySection, error) { return studies.Run(id, cfg) }

// RenderStudy writes study sections as readable text tables.
func RenderStudy(w io.Writer, sections []StudySection) error { return studies.Render(w, sections) }

// ArchProfiles returns the single-core architecture cost models of the
// thesis' two machines (Grace-Arm and Aries-x86) for Study 6 style
// comparisons.
func ArchProfiles() []machine.Profile { return machine.Profiles() }

// ---- Format advisor ----

// AdvisorFeatures are the format-selection signals extracted from a matrix.
type AdvisorFeatures = advisor.Features

// Advice is one ranked format recommendation.
type Advice = advisor.Advice

// AdvisorEnvironment selects the execution setting a format is chosen for.
type AdvisorEnvironment = advisor.Environment

// Advisor environments.
const (
	SerialCPU   = advisor.SerialCPU
	ParallelCPU = advisor.ParallelCPU
	GPUEnv      = advisor.GPUEnv
)

// Kernel execution modes.
const (
	ModeSerial   = core.Serial
	ModeParallel = core.Parallel
	ModeGPU      = core.GPU
)

// ExtractFeatures computes the advisor's format-selection features.
func ExtractFeatures(m *COO) (AdvisorFeatures, error) { return advisor.Extract(m) }

// RecommendFormat ranks the main formats for the environment, best first.
func RecommendFormat(f AdvisorFeatures, env AdvisorEnvironment) []Advice {
	return advisor.Recommend(f, env)
}

// MeasureFormats empirically benchmarks the candidate formats and returns
// the winner with all results.
func MeasureFormats(m *COO, env AdvisorEnvironment, p Params, o KernelOptions) (string, []Result, error) {
	return advisor.Measure(m, env, p, o)
}
