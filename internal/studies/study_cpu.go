package studies

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/metrics"
)

// The CPU-side studies (1–5, 8) run on the simulated Grace-Arm and
// Aries-x86 sockets (package machine) so both of the thesis' machines are
// reproduced regardless of the host, with GPU panels from the simulated
// devices. Study 9 (manual optimisations) instead measures the real Go
// kernels on the host, since its subject is what a compile-time k could
// still buy the k loop.

// study1 regenerates Figures 5.1/5.2: every format in every environment
// (serial CPU, parallel CPU with 32 threads, GPU), per architecture. The
// x86 figure has no GPU panel — the thesis discarded its Aries GPU numbers
// as unusable (§5.3), and the suite reproduces the figure as published.
func (e *env) study1() ([]Section, error) {
	p := e.params()
	sections := []Section{}
	for _, mc := range machine.Machines() {
		for _, mode := range []string{"serial", "omp"} {
			t := metrics.NewTable("matrix", "coo", "csr", "ell", "bcsr", "best")
			for _, name := range e.cfg.matrixNames() {
				vals := map[string]float64{}
				row := []any{name}
				for _, f := range mainFormats {
					var r machine.Result
					var err error
					if mode == "serial" {
						r, err = e.simSerial(mc.Prof, f, name, p.BlockSize, p.K)
					} else {
						r, err = e.simParallel(mc, f, name, p.BlockSize, p.K, p.Threads, kernels.InnerTiled)
					}
					if err != nil {
						return nil, fmt.Errorf("study 1 (%s %s %s): %w", f, mode, name, err)
					}
					vals[f] = r.MFLOPS
					row = append(row, fmtMF(r.MFLOPS))
				}
				row = append(row, argmax(vals))
				t.AddRow(row...)
			}
			sections = append(sections, Section{
				Title: fmt.Sprintf("Study 1 (Figs 5.1/5.2): all formats, %s kernels, %s, MFLOPS",
					mode, archLabel(mc.Prof)),
				Table: t,
			})
		}
	}

	dev, err := e.newDevice(gpusim.H100Like())
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("matrix", "coo", "csr", "ell", "bcsr", "best")
	for _, name := range e.cfg.matrixNames() {
		vals := map[string]float64{}
		row := []any{name}
		for _, f := range mainFormats {
			r, err := e.run(f+"-gpu", name, e.cfg.GPUScale, p, core.Options{Device: dev})
			if err != nil {
				return nil, fmt.Errorf("study 1 (%s gpu %s): %w", f, name, err)
			}
			vals[f] = r.MFLOPS
			row = append(row, fmtMF(r.MFLOPS))
		}
		row = append(row, argmax(vals))
		t.AddRow(row...)
	}
	sections = append(sections, Section{
		Title: "Study 1 (Fig 5.1): all formats, gpu kernels, Arm (H100-sim), MFLOPS",
		Table: t,
	})
	return sections, nil
}

// study2 regenerates Figures 5.3/5.4: for each format, which kernel form
// wins per matrix — serial/omp/gpu on Arm, serial/omp on x86 (the thesis
// could not use the Aries GPU).
func (e *env) study2() ([]Section, error) {
	p := e.params()
	dev, err := e.newDevice(gpusim.H100Like())
	if err != nil {
		return nil, err
	}
	sections := []Section{}
	for _, mc := range machine.Machines() {
		withGPU := mc.Prof.Name == "grace-arm"
		for _, f := range mainFormats {
			header := []string{"matrix", "serial", "omp"}
			if withGPU {
				header = append(header, "gpu")
			}
			header = append(header, "best")
			t := metrics.NewTable(header...)
			for _, name := range e.cfg.matrixNames() {
				vals := map[string]float64{}
				rSer, err := e.simSerial(mc.Prof, f, name, p.BlockSize, p.K)
				if err != nil {
					return nil, fmt.Errorf("study 2: %w", err)
				}
				vals["serial"] = rSer.MFLOPS
				rOmp, err := e.simParallel(mc, f, name, p.BlockSize, p.K, p.Threads, kernels.InnerTiled)
				if err != nil {
					return nil, fmt.Errorf("study 2: %w", err)
				}
				vals["omp"] = rOmp.MFLOPS
				row := []any{name, fmtMF(vals["serial"]), fmtMF(vals["omp"])}
				if withGPU {
					rGPU, err := e.run(f+"-gpu", name, e.cfg.GPUScale, p, core.Options{Device: dev})
					if err != nil {
						return nil, fmt.Errorf("study 2: %w", err)
					}
					vals["gpu"] = rGPU.MFLOPS
					row = append(row, fmtMF(vals["gpu"]))
				}
				row = append(row, argmax(vals))
				t.AddRow(row...)
			}
			sections = append(sections, Section{
				Title: fmt.Sprintf("Study 2 (Figs 5.3/5.4): best form of %s, %s, MFLOPS",
					f, archLabel(mc.Prof)),
				Table: t,
			})
		}
	}
	return sections, nil
}

// study3 regenerates Figures 5.5/5.6: parallel kernels at 8, 16 and 32
// threads per format and architecture.
func (e *env) study3() ([]Section, error) {
	p := e.params()
	threadCounts := []int{8, 16, 32}
	sections := []Section{}
	for _, mc := range machine.Machines() {
		for _, f := range mainFormats {
			t := metrics.NewTable("matrix", "t=8", "t=16", "t=32", "best")
			for _, name := range e.cfg.matrixNames() {
				vals := map[string]float64{}
				row := []any{name}
				for _, threads := range threadCounts {
					r, err := e.simParallel(mc, f, name, p.BlockSize, p.K, threads, kernels.InnerTiled)
					if err != nil {
						return nil, fmt.Errorf("study 3: %w", err)
					}
					key := fmt.Sprintf("t=%d", threads)
					vals[key] = r.MFLOPS
					row = append(row, fmtMF(r.MFLOPS))
				}
				row = append(row, argmax(vals))
				t.AddRow(row...)
			}
			sections = append(sections, Section{
				Title: fmt.Sprintf("Study 3 (Figs 5.5/5.6): %s thread scaling, %s, MFLOPS",
					f, archLabel(mc.Prof)),
				Table: t,
			})
		}
	}
	return sections, nil
}

// study31 regenerates Figures 5.7/5.8: the best-thread-count sweep over
// {2,4,8,16,32,48,64,72} per architecture and, per format, how many
// matrices peaked at the top count.
func (e *env) study31() ([]Section, error) {
	p := e.params()
	threadList := []int{2, 4, 8, 16, 32, 48, 64, 72}
	top := threadList[len(threadList)-1]
	sections := []Section{}
	for _, mc := range machine.Machines() {
		perMatrix := metrics.NewTable("matrix", "coo", "csr", "ell", "bcsr")
		histogram := map[string]int{}
		for _, name := range e.cfg.matrixNames() {
			row := []any{name}
			for _, f := range mainFormats {
				bestThreads, bestMF := 0, -1.0
				for _, threads := range threadList {
					r, err := e.simParallel(mc, f, name, p.BlockSize, p.K, threads, kernels.InnerTiled)
					if err != nil {
						return nil, fmt.Errorf("study 3.1: %w", err)
					}
					if r.MFLOPS > bestMF {
						bestMF = r.MFLOPS
						bestThreads = threads
					}
				}
				row = append(row, bestThreads)
				if bestThreads == top {
					histogram[f]++
				}
			}
			perMatrix.AddRow(row...)
		}
		hist := metrics.NewTable("format", fmt.Sprintf("matrices best at %d threads", top), "of")
		for _, f := range mainFormats {
			hist.AddRow(f, histogram[f], len(e.cfg.matrixNames()))
		}
		sections = append(sections,
			Section{
				Title: fmt.Sprintf("Study 3.1 (Figs 5.7/5.8): best thread count per matrix, %s", archLabel(mc.Prof)),
				Table: perMatrix,
			},
			Section{
				Title: fmt.Sprintf("Study 3.1: matrices per format best at %d threads, %s", top, archLabel(mc.Prof)),
				Table: hist,
			})
	}
	return sections, nil
}

// study4 regenerates Figures 5.9/5.10: the k-loop sweep on the parallel
// kernels, per architecture.
func (e *env) study4() ([]Section, error) {
	p := e.params()
	ks := []int{8, 16, 64, 128, 256, 512, 1028}
	sections := []Section{}
	for _, mc := range machine.Machines() {
		for _, f := range mainFormats {
			header := []string{"matrix"}
			for _, k := range ks {
				header = append(header, fmt.Sprintf("k=%d", k))
			}
			t := metrics.NewTable(header...)
			for _, name := range e.cfg.matrixNames() {
				row := []any{name}
				for _, k := range ks {
					r, err := e.simParallel(mc, f, name, p.BlockSize, k, p.Threads, kernels.InnerTiled)
					if err != nil {
						return nil, fmt.Errorf("study 4: %w", err)
					}
					row = append(row, fmtMF(r.MFLOPS))
				}
				t.AddRow(row...)
			}
			sections = append(sections, Section{
				Title: fmt.Sprintf("Study 4 (Figs 5.9/5.10): setting -k, %s parallel, %s, MFLOPS",
					f, archLabel(mc.Prof)),
				Table: t,
			})
		}
	}
	return sections, nil
}

// study5 regenerates Figures 5.11/5.12: BCSR block sizes 2, 4 and 16 in
// serial and parallel environments per architecture, plus the Arm GPU.
func (e *env) study5() ([]Section, error) {
	p := e.params()
	sections := []Section{}
	for _, mc := range machine.Machines() {
		for _, mode := range []string{"serial", "omp"} {
			header := []string{"matrix"}
			for _, b := range bcsrBlocks {
				header = append(header, fmt.Sprintf("b=%d", b))
			}
			header = append(header, "best")
			t := metrics.NewTable(header...)
			for _, name := range e.cfg.matrixNames() {
				vals := map[string]float64{}
				row := []any{name}
				for _, b := range bcsrBlocks {
					var r machine.Result
					var err error
					if mode == "serial" {
						r, err = e.simSerial(mc.Prof, "bcsr", name, b, p.K)
					} else {
						r, err = e.simParallel(mc, "bcsr", name, b, p.K, p.Threads, kernels.InnerTiled)
					}
					if err != nil {
						return nil, fmt.Errorf("study 5: %w", err)
					}
					key := fmt.Sprintf("b=%d", b)
					vals[key] = r.MFLOPS
					row = append(row, fmtMF(r.MFLOPS))
				}
				row = append(row, argmax(vals))
				t.AddRow(row...)
			}
			sections = append(sections, Section{
				Title: fmt.Sprintf("Study 5 (Figs 5.11/5.12): BCSR block sizes, %s, %s, MFLOPS",
					mode, archLabel(mc.Prof)),
				Table: t,
			})
		}
	}

	dev, err := e.newDevice(gpusim.H100Like())
	if err != nil {
		return nil, err
	}
	header := []string{"matrix"}
	for _, b := range bcsrBlocks {
		header = append(header, fmt.Sprintf("b=%d", b))
	}
	header = append(header, "best")
	t := metrics.NewTable(header...)
	for _, name := range e.cfg.matrixNames() {
		vals := map[string]float64{}
		row := []any{name}
		for _, b := range bcsrBlocks {
			q := p
			q.BlockSize = b
			r, err := e.run("bcsr-gpu", name, e.cfg.GPUScale, q, core.Options{Device: dev})
			if err != nil {
				return nil, fmt.Errorf("study 5 gpu: %w", err)
			}
			key := fmt.Sprintf("b=%d", b)
			vals[key] = r.MFLOPS
			row = append(row, fmtMF(r.MFLOPS))
		}
		row = append(row, argmax(vals))
		t.AddRow(row...)
	}
	sections = append(sections, Section{
		Title: "Study 5 (Fig 5.11): BCSR block sizes, gpu, Arm (H100-sim), MFLOPS",
		Table: t,
	})
	return sections, nil
}
