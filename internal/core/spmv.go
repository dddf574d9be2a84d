package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// The thesis' future work asks for SpMV support in the suite (§6.3.4):
// "using a common set of benchmarks is preferable in order to get
// consistent data" when one study needs both SpMV and SpMM. This file adds
// that support: SpMV kernels behind their own small interface, a registry,
// and a runner that mirrors Run — the suite generates a dense vector
// instead of a dense matrix, exactly the modification the thesis sketches.

// SpMVKernel is the vector counterpart of Kernel: y = A × x.
type SpMVKernel interface {
	// Name is the registry name, e.g. "csr-spmv-omp".
	Name() string
	// Format is the sparse format family.
	Format() string
	// Mode reports the execution environment.
	Mode() Mode
	// Prepare converts the COO base representation into the kernel's
	// format.
	Prepare(a *matrix.COO[float64], p Params) error
	// Bytes reports the formatted matrix footprint, valid after Prepare.
	Bytes() int
	// CalculateVec computes y = A × x.
	CalculateVec(x, y []float64, p Params) error
}

type spmvKernel struct {
	format string
	mode   Mode
	prepared
}

func (k *spmvKernel) Name() string {
	return k.format + "-spmv-" + k.mode.String()
}
func (k *spmvKernel) Format() string { return k.format }
func (k *spmvKernel) Mode() Mode     { return k.mode }

func (k *spmvKernel) Prepare(a *matrix.COO[float64], p Params) error {
	f, err := formats.FromCOO(k.format, a, formats.Params{Block: p.BlockSize, Layout: formats.RowMajor})
	if err != nil {
		return err
	}
	k.a = f
	return nil
}

func (k *spmvKernel) CalculateVec(x, y []float64, p Params) error {
	threads := 1
	if k.mode == Parallel {
		threads = p.Threads
	}
	switch a := k.a.(type) {
	case nil:
		return ErrNotPrepared
	case *matrix.COO[float64]:
		return kernels.COOSpMV(a, x, y, threads)
	case *formats.CSR[float64]:
		return kernels.CSRSpMV(a, x, y, threads)
	case *formats.ELL[float64]:
		return kernels.ELLSpMV(a, x, y, threads)
	case *formats.BCSR[float64]:
		return kernels.BCSRSpMV(a, x, y, threads)
	}
	return fmt.Errorf("core: no spmv kernel for format %q", k.format)
}

// NewSpMV builds an SpMV kernel by registry name.
func NewSpMV(name string) (SpMVKernel, error) {
	for _, format := range []string{"coo", "csr", "ell", "bcsr"} {
		for _, mode := range []Mode{Serial, Parallel} {
			k := &spmvKernel{format: format, mode: mode}
			if k.Name() == name {
				return k, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: %q (try SpMVNames())", ErrUnknownKernel, name)
}

// SpMVNames lists the SpMV kernel registry names, sorted.
func SpMVNames() []string {
	names := []string{}
	for _, format := range []string{"coo", "csr", "ell", "bcsr"} {
		for _, mode := range []Mode{Serial, Parallel} {
			names = append(names, (&spmvKernel{format: format, mode: mode}).Name())
		}
	}
	sort.Strings(names)
	return names
}

// RunSpMV benchmarks one SpMV kernel on one matrix, mirroring Run: timed
// Prepare, warm-up, p.Reps timed repetitions, verification against the COO
// SpMV reference, and MFLOPS from 2*nnz flops per multiply.
func RunSpMV(k SpMVKernel, a *matrix.COO[float64], matrixName string, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := a.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: input matrix: %w", err)
	}

	res := Result{
		Kernel:  k.Name(),
		Format:  k.Format(),
		Mode:    k.Mode().String(),
		Matrix:  matrixName,
		K:       1,
		Threads: p.Threads,
		Block:   p.BlockSize,
	}

	start := time.Now()
	if err := k.Prepare(a, p); err != nil {
		return Result{}, fmt.Errorf("core: %s: prepare: %w", k.Name(), err)
	}
	res.FormatSeconds = time.Since(start).Seconds()
	res.FormatBytes = k.Bytes()

	// The suite generates the dense operand; for SpMV it is a vector.
	rng := rand.New(rand.NewSource(p.Seed))
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	y := make([]float64, a.Rows)

	if err := k.CalculateVec(x, y, p); err != nil {
		return Result{}, fmt.Errorf("core: %s: calculate: %w", k.Name(), err)
	}

	var total, minSec float64
	for rep := 0; rep < p.Reps; rep++ {
		t0 := time.Now()
		if err := k.CalculateVec(x, y, p); err != nil {
			return Result{}, fmt.Errorf("core: %s: calculate: %w", k.Name(), err)
		}
		secs := time.Since(t0).Seconds()
		total += secs
		if rep == 0 || secs < minSec {
			minSec = secs
		}
	}
	res.AvgSeconds = total / float64(p.Reps)
	res.MinSeconds = minSec
	res.MFLOPS = metrics.MFLOPS(kernels.SpMVFlops(a.NNZ()), res.AvgSeconds)

	if p.Verify {
		ref := make([]float64, a.Rows)
		if err := kernels.COOSpMV(a, x, ref, 1); err != nil {
			return Result{}, fmt.Errorf("core: reference spmv: %w", err)
		}
		tol := matrix.DefaultTol[float64]()
		for i := range ref {
			diff := y[i] - ref[i]
			if diff < 0 {
				diff = -diff
			}
			if diff > res.MaxAbsDiff {
				res.MaxAbsDiff = diff
			}
			if !matrix.EqualTol(y[i], ref[i], tol) {
				return res, fmt.Errorf("%w: %s on %s: y[%d]=%g, want %g",
					ErrVerify, k.Name(), matrixName, i, y[i], ref[i])
			}
		}
		res.Verified = true
	}
	return res, nil
}
