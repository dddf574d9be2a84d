package studies

import (
	"fmt"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// This file adapts the machine cost models to the studies: format
// conversions cached per matrix, and the serial and parallel simulation of
// any (format, block size, inner loop) on either architecture.

// prepared returns matrix name@scale converted by formats.FromCOO (BCSR and
// BELL at block×block), converting once per env.
func (e *env) prepared(name string, scale float64, format string, block int) (formats.Sparse, error) {
	key := fmt.Sprintf("%s@%g/%s/b%d", name, scale, format, block)
	if f, ok := e.fmts[key]; ok {
		return f, nil
	}
	m, err := e.matrix(name, scale)
	if err != nil {
		return nil, err
	}
	f, err := formats.FromCOO(format, m, formats.Params{Block: block})
	if err != nil {
		return nil, err
	}
	e.fmts[key] = f
	return f, nil
}

// simSerial runs the single-core cost model for one format.
func (e *env) simSerial(prof machine.Profile, format, name string, block, k int) (machine.Result, error) {
	a, err := e.prepared(name, e.cfg.Scale, format, block)
	if err != nil {
		return machine.Result{}, err
	}
	return machine.Simulate(prof, a, k, kernels.InnerTiled)
}

// simParallel runs the socket cost model for one format under the static
// schedule.
func (e *env) simParallel(mc machine.Multicore, format, name string, block, k, threads int, inner kernels.Inner) (machine.Result, error) {
	a, err := e.prepared(name, e.cfg.Scale, format, block)
	if err != nil {
		return machine.Result{}, err
	}
	return mc.Simulate(a, k, threads, kernels.ScheduleStatic, inner)
}

// archLabel maps a profile to the thesis' machine naming.
func archLabel(prof machine.Profile) string {
	if prof.Name == "grace-arm" {
		return "Arm (Grace Hopper, simulated)"
	}
	return "x86 (Aries, simulated)"
}
