// Package studies implements the nine evaluation studies of the thesis
// (Chapter 5), each regenerating the data series of its figures/tables as
// plain-text tables. The studies run on synthetic matrices calibrated to
// Table 5.1 (package gen), scaled down by a configurable factor so the full
// suite completes on a laptop; the scale preserves the average row degree
// and column ratio, the properties the characterisation keys off.
//
// Host-vs-architecture mapping: the thesis ran every study on two physical
// machines (Grace Hopper "Arm" and EPYC "Aries"). Here, the CPU studies
// (1–6, 8) run on the simulated Grace-Arm and Aries-x86 sockets (package
// machine), so both of the thesis' machines appear in every figure even on
// a single-core host; the GPU panels run on the simulated devices
// (H100-like for the Arm machine, A100-like for Aries); and Study 9 — whose
// subject is what a compile-time k could buy the k loop — measures the
// real Go kernels on the host.
package studies

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// RunnerFunc executes one benchmark run. The spmmstudy CLI installs the
// resilient harness runner here so studies gain panic containment,
// per-run timeouts, transient-failure retries and journal-based resume
// without the studies code knowing about any of it.
type RunnerFunc func(kernelName string, opts core.Options, a *matrix.COO[float64],
	matrixName string, p core.Params) (core.Result, error)

// Config controls a study run.
type Config struct {
	// Scale shrinks the registry matrices for CPU studies (0 < Scale <= 1).
	Scale float64
	// GPUScale shrinks them further for simulated-GPU studies, whose
	// functional simulation costs more host time per rep.
	GPUScale float64
	// Reps is the timed repetition count per kernel.
	Reps int
	// Matrices restricts the matrix set (default: the full registry).
	Matrices []string
	// Verify checks every kernel result against the COO reference.
	Verify bool
	// Runner, when non-nil, replaces the direct core.Run call for every
	// benchmark the studies execute.
	Runner RunnerFunc
}

// DefaultConfig returns a configuration that completes the full suite in
// minutes on a laptop.
func DefaultConfig() Config {
	return Config{Scale: 0.05, GPUScale: 0.02, Reps: 3, Verify: false}
}

func (c Config) validate() error {
	if c.Scale <= 0 || c.Scale > 1 || c.GPUScale <= 0 || c.GPUScale > 1 {
		return fmt.Errorf("studies: scales must be in (0, 1]: %+v", c)
	}
	if c.Reps < 1 {
		return fmt.Errorf("studies: reps %d < 1", c.Reps)
	}
	return nil
}

func (c Config) matrixNames() []string {
	if len(c.Matrices) > 0 {
		return c.Matrices
	}
	return gen.Names()
}

// Section is one titled output table; a study emits one section per figure
// panel.
type Section struct {
	Title string
	Table *metrics.Table
}

// RenderCharts writes sections as text bar charts — the shape of the
// thesis' figures. Non-numeric columns (winner labels etc.) are skipped
// automatically.
func RenderCharts(w io.Writer, sections []Section) error {
	for i, s := range sections {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		chart := metrics.NewBarChart(s.Title, "")
		groupCols := []int{0}
		first := 1
		// Category columns (format, block) join the group label rather
		// than becoming bars.
		if len(s.Table.Header) > 1 && (s.Table.Header[1] == "format" || s.Table.Header[1] == "block") {
			groupCols = []int{0, 1}
			first = 2
		}
		cols := make([]int, 0, len(s.Table.Header))
		for c := first; c < len(s.Table.Header); c++ {
			cols = append(cols, c)
		}
		chart.FromTableWithGroups(s.Table, groupCols, cols)
		if err := chart.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// Render writes sections as readable text.
func Render(w io.Writer, sections []Section) error {
	for i, s := range sections {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "## %s\n", s.Title); err != nil {
			return err
		}
		if err := s.Table.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// env caches generated matrices and format conversions across a study run.
type env struct {
	cfg  Config
	coos map[string]*matrix.COO[float64] // keyed by name@scale
	fmts map[string]formats.Sparse       // keyed by name@scale/format/block
}

func newEnv(cfg Config) *env {
	return &env{cfg: cfg, coos: map[string]*matrix.COO[float64]{}, fmts: map[string]formats.Sparse{}}
}

func (e *env) matrix(name string, scale float64) (*matrix.COO[float64], error) {
	key := fmt.Sprintf("%s@%g", name, scale)
	if m, ok := e.coos[key]; ok {
		return m, nil
	}
	m, _, err := gen.GenerateScaled(name, scale)
	if err != nil {
		return nil, err
	}
	e.coos[key] = m
	return m, nil
}

func (e *env) params() core.Params {
	p := core.DefaultParams()
	p.Reps = e.cfg.Reps
	p.Verify = e.cfg.Verify
	return p
}

// run benchmarks one registry kernel on one matrix, through the configured
// Runner when one is installed.
func (e *env) run(kernelName, matrixName string, scale float64, p core.Params, opts core.Options) (core.Result, error) {
	m, err := e.matrix(matrixName, scale)
	if err != nil {
		return core.Result{}, err
	}
	if e.cfg.Runner != nil {
		return e.cfg.Runner(kernelName, opts, m, matrixName, p)
	}
	k, err := core.New(kernelName, opts)
	if err != nil {
		return core.Result{}, err
	}
	return core.Run(k, m, matrixName, p)
}

// newDevice builds the simulated GPU, scaled down to match the study's
// matrix scale so blocks-per-SM (the occupancy regime) matches a full-size
// run on the full-size device.
func (e *env) newDevice(cfg gpusim.Config) (*gpusim.Device, error) {
	return gpusim.NewDevice(cfg.ScaledDown(e.cfg.GPUScale))
}

// All lists the study identifiers in evaluation order: Table 5.1, the nine
// studies of Chapter 5, and the memory-footprint analysis of future-work
// §6.3.5.
func All() []string {
	return []string{"props", "1", "2", "3", "3.1", "4", "5", "6", "7", "8", "9", "mem", "sched"}
}

// Run dispatches a study by identifier.
func Run(id string, cfg Config) ([]Section, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := newEnv(cfg)
	switch id {
	case "props", "table5.1":
		return e.studyProps()
	case "1":
		return e.study1()
	case "2":
		return e.study2()
	case "3":
		return e.study3()
	case "3.1":
		return e.study31()
	case "4":
		return e.study4()
	case "5":
		return e.study5()
	case "6":
		return e.study6()
	case "7":
		return e.study7()
	case "8":
		return e.study8()
	case "9":
		return e.study9()
	case "mem":
		return e.studyMem()
	case "sched":
		return e.studySched()
	default:
		return nil, fmt.Errorf("studies: unknown study %q (have %v)", id, All())
	}
}

// studyProps regenerates Table 5.1: the properties of each matrix.
func (e *env) studyProps() ([]Section, error) {
	t := metrics.NewTable("matrix", "size", "nonzeros", "max", "avg", "ratio", "variance", "stddev", "gini")
	for _, name := range e.cfg.matrixNames() {
		m, err := e.matrix(name, e.cfg.Scale)
		if err != nil {
			return nil, err
		}
		p := metrics.Compute(m)
		t.AddRow(name, p.Rows, p.NNZ, p.MaxRow,
			fmt.Sprintf("%.0f", p.AvgRow),
			fmt.Sprintf("%.0f", p.Ratio),
			fmt.Sprintf("%.0f", p.Variance),
			fmt.Sprintf("%.0f", p.StdDev),
			fmt.Sprintf("%.2f", p.Gini))
	}
	title := fmt.Sprintf("Table 5.1: Properties of Each Matrix (scale %g)", e.cfg.Scale)
	return []Section{{Title: title, Table: t}}, nil
}

// argmax returns the key of the highest value.
func argmax(vals map[string]float64) string {
	best, bestV := "", 0.0
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if vals[k] > bestV {
			best, bestV = k, vals[k]
		}
	}
	return best
}

// fmtMF formats an MFLOPS cell.
func fmtMF(v float64) string { return fmt.Sprintf("%.0f", v) }

var mainFormats = []string{"coo", "csr", "ell", "bcsr"}

// bcsrBlocks are the block sizes of the BCSR studies.
var bcsrBlocks = []int{2, 4, 16}
