package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/formats"
	"repro/internal/gpusim"
	"repro/internal/kernels"
)

// Options carries the shared resources kernel constructors may need.
type Options struct {
	// Device is the simulated GPU used by GPU-mode kernels. Nil is fine
	// for CPU kernels.
	Device *gpusim.Device
	// ELLLayout selects the CPU ELL storage layout (GPU ELL is always
	// column-major).
	ELLLayout formats.ELLLayout
}

// constructor builds a fresh kernel instance.
type constructor func(o Options) (Kernel, error)

func needDevice(name, format string, vendor bool) constructor {
	return func(o Options) (Kernel, error) {
		if o.Device == nil {
			return nil, fmt.Errorf("core: kernel %q needs a GPU device", name)
		}
		return &gpuKernel{name: name, format: format, dev: o.Device, vendor: vendor,
			transT: strings.HasSuffix(name, "-t")}, nil
	}
}

// registry maps kernel names to constructors. Adding a new format means
// adding entries here — the extension point the thesis designed its suite
// around.
var registry = map[string]constructor{}

func register(name string, c constructor) {
	if _, dup := registry[name]; dup {
		panic("core: duplicate kernel " + name)
	}
	registry[name] = c
}

func init() {
	// The CPU kernels are the lattice's serial and parallel columns: one
	// name per format × mode × inner loop the format's row has.
	for _, mode := range []Mode{Serial, Parallel} {
		for _, format := range Formats() {
			for _, inner := range []kernels.Inner{kernels.InnerTiled, kernels.InnerTransB} {
				if _, ok := kernels.ParseVariant(format + "/" + (kernels.Spec{Inner: inner}).Name()); !ok {
					continue
				}
				register(kernelName(format, mode, inner), func(o Options) (Kernel, error) {
					return &cpuKernel{format: format, mode: mode, inner: inner, layout: o.ELLLayout}, nil
				})
			}
		}
	}
	for _, format := range []string{"coo", "csr", "ell", "bcsr", "bell"} {
		name := format + "-gpu"
		register(name, needDevice(name, format, false))
	}
	register("csr-gpu-t", needDevice("csr-gpu-t", "csr", false))
	register("vendor-coo-gpu", needDevice("vendor-coo-gpu", "coo", true))
	register("vendor-csr-gpu", needDevice("vendor-csr-gpu", "csr", true))
}

// New builds a fresh kernel by registry name.
func New(name string, o Options) (Kernel, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	return c(o)
}

// Names lists the registered kernel names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Formats lists the format families with at least one registered kernel.
func Formats() []string {
	return []string{"coo", "csr", "ell", "bcsr", "bell", "sellcs"}
}
