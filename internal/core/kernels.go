package core

import (
	"repro/internal/formats"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/vendorlib"
)

// This file implements the Kernel interface for every format × mode
// combination the registry exposes. A kernel holds its formatted
// matrix between Prepare and Calculate, exactly as the thesis' C++ objects
// hold their format-specific structures.

// prepared is the state every kernel keeps between Prepare and Calculate.
type prepared struct{ a formats.Sparse }

// Bytes reports the formatted matrix's footprint, 0 before Prepare.
func (p prepared) Bytes() int {
	if p.a == nil {
		return 0
	}
	return p.a.Bytes()
}

// cpuKernel is every CPU kernel of the registry: a format name, the mode
// its registry name spells, and the prepared matrix. Calculate is
// kernels.Multiply under the Spec the run's Params describe.
type cpuKernel struct {
	format string
	mode   Mode
	layout formats.ELLLayout
	prepared
}

func (k *cpuKernel) Name() string   { return kernelName(k.format, k.mode) }
func (k *cpuKernel) Format() string { return k.format }
func (k *cpuKernel) Mode() Mode     { return k.mode }

func (k *cpuKernel) Prepare(a *matrix.COO[float64], p Params) error {
	f, err := formats.FromCOO(k.format, a, formats.Params{Block: p.BlockSize, Layout: k.layout})
	if err != nil {
		return err
	}
	k.a = f
	if k.mode == Parallel && p.Schedule == kernels.ScheduleBalanced {
		// Warm the partition cache at formatting time so the first timed
		// Calculate already runs the steady-state (allocation-free) path.
		if bal, ok := f.(interface{ BalancedBounds(chunks int) []int }); ok {
			bal.BalancedBounds(p.Threads)
		}
	}
	return nil
}

func (k *cpuKernel) Calculate(b, c *matrix.Dense[float64], p Params) error {
	if k.a == nil {
		return ErrNotPrepared
	}
	return kernels.Multiply(k.a, b, c, p.K, k.spec(p))
}

// spec maps the run's parameters onto the kernel lattice. A serial kernel
// keeps only the context; a parallel one takes the thread count, schedule,
// pool and tracer.
func (k *cpuKernel) spec(p Params) kernels.Spec {
	s := kernels.Spec{Threads: 1, Ctx: p.Ctx}
	if k.mode == Parallel {
		s.Threads, s.Schedule, s.Pool, s.Trace = p.Threads, p.Schedule, p.Pool, p.Trace
	}
	return s
}

// ---- GPU kernels (simulated device) ----

// gpuKernel wraps the naive offload kernels of gpusim and the tuned kernels
// of vendorlib behind the Kernel interface. The runner picks up the
// modelled time through ModelTimed.
type gpuKernel struct {
	name   string
	format string
	dev    *gpusim.Device
	vendor bool
	// inner is InnerTransB for csr-gpu-t, which transposes B on the device
	// itself (the cost is part of the modelled time), so the runner passes
	// the plain B as to every kernel.
	inner kernels.Inner

	prepared
	last gpusim.LaunchResult
}

func (k *gpuKernel) Name() string   { return k.name }
func (k *gpuKernel) Format() string { return k.format }
func (k *gpuKernel) Mode() Mode     { return GPU }

func (k *gpuKernel) Prepare(a *matrix.COO[float64], p Params) error {
	// GPU ELL uses the column-major layout (coalesced).
	f, err := formats.FromCOO(k.format, a, formats.Params{Block: p.BlockSize, Layout: formats.ColMajor})
	if err != nil {
		return err
	}
	k.a = f
	return nil
}

func (k *gpuKernel) Calculate(b, c *matrix.Dense[float64], p Params) error {
	if k.a == nil {
		return ErrNotPrepared
	}
	if p.Trace != nil && k.dev != nil {
		// Forward the run's tracer so every Launch lands a simulated-time
		// span; the device keeps it for subsequent launches.
		k.dev.Trace = p.Trace
	}
	var err error
	if k.vendor {
		k.last, err = vendorlib.SpMM(k.dev, k.a, b, c, p.K)
	} else {
		k.last, err = gpusim.SpMM(k.dev, k.a, b, c, p.K, k.inner)
	}
	return err
}

// ModelSeconds implements ModelTimed.
func (k *gpuKernel) ModelSeconds() float64 { return k.last.Seconds }

func kernelName(format string, mode Mode) string { return format + "-" + mode.String() }
