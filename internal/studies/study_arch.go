package studies

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/metrics"
)

// study6 regenerates Figures 5.13/5.14: single-core performance of each
// format under the Grace-Arm and Aries-x86 cost-model profiles, plus BCSR
// at all three block sizes.
func (e *env) study6() ([]Section, error) {
	profiles := machine.Profiles()
	p := e.params()

	// arch prices one format on both profiles.
	arch := func(f, name string, block int) (map[string]float64, error) {
		vals := map[string]float64{}
		for _, prof := range profiles {
			r, err := e.simSerial(prof, f, name, block, p.K)
			if err != nil {
				return nil, fmt.Errorf("study 6: %w", err)
			}
			vals[prof.Name] = r.MFLOPS
		}
		return vals, nil
	}
	scalar := metrics.NewTable("matrix", "format", profiles[0].Name, profiles[1].Name, "faster")
	blocked := metrics.NewTable("matrix", "block", profiles[0].Name, profiles[1].Name, "faster")
	for _, name := range e.cfg.matrixNames() {
		for _, f := range []string{"coo", "csr", "ell"} {
			vals, err := arch(f, name, p.BlockSize)
			if err != nil {
				return nil, err
			}
			scalar.AddRow(name, f,
				fmtMF(vals[profiles[0].Name]), fmtMF(vals[profiles[1].Name]), argmax(vals))
		}
	}
	for _, name := range e.cfg.matrixNames() {
		for _, bs := range bcsrBlocks {
			vals, err := arch("bcsr", name, bs)
			if err != nil {
				return nil, err
			}
			blocked.AddRow(name, bs,
				fmtMF(vals[profiles[0].Name]), fmtMF(vals[profiles[1].Name]), argmax(vals))
		}
	}

	return []Section{
		{Title: "Study 6 (Fig 5.13): all formats serial, Arm vs x86 cost model, MFLOPS", Table: scalar},
		{Title: "Study 6 (Fig 5.14): BCSR block sizes 2/4/16, Arm vs x86 cost model, MFLOPS", Table: blocked},
	}, nil
}

// study7 regenerates Figures 5.15/5.16: the vendor-library (cuSPARSE
// stand-in) COO/CSR kernels against the naive offload kernels, on both
// simulated devices, over the 9 matrices that fit device memory in the
// thesis. The thesis additionally lost matrices on Aries to OpenMP runtime
// failures; the simulator has no such bug, so the full set runs on both
// devices (noted as a deviation in EXPERIMENTS.md).
func (e *env) study7() ([]Section, error) {
	devices := []struct {
		label string
		cfg   gpusim.Config
	}{
		{"Arm/H100-sim (Fig 5.15)", gpusim.H100Like()},
		{"x86/A100-sim (Fig 5.16)", gpusim.A100Like()},
	}
	names := gen.Study7Names()
	if len(e.cfg.Matrices) > 0 {
		names = e.cfg.Matrices
	}
	sections := []Section{}
	for _, d := range devices {
		dev, err := e.newDevice(d.cfg)
		if err != nil {
			return nil, err
		}
		t := metrics.NewTable("matrix", "coo-offload", "coo-vendor", "csr-offload", "csr-vendor", "vendor wins")
		for _, name := range names {
			p := e.params()
			vals := map[string]float64{}
			for _, kn := range []string{"coo-gpu", "vendor-coo-gpu", "csr-gpu", "vendor-csr-gpu"} {
				r, err := e.run(kn, name, e.cfg.GPUScale, p, core.Options{Device: dev})
				if err != nil {
					return nil, fmt.Errorf("study 7 (%s %s): %w", kn, name, err)
				}
				vals[kn] = r.MFLOPS
			}
			wins := 0
			if vals["vendor-coo-gpu"] > vals["coo-gpu"] {
				wins++
			}
			if vals["vendor-csr-gpu"] > vals["csr-gpu"] {
				wins++
			}
			t.AddRow(name,
				fmtMF(vals["coo-gpu"]), fmtMF(vals["vendor-coo-gpu"]),
				fmtMF(vals["csr-gpu"]), fmtMF(vals["vendor-csr-gpu"]),
				fmt.Sprintf("%d/2", wins))
		}
		sections = append(sections, Section{
			Title: "Study 7 (Figs 5.15/5.16): cuSparse-equivalent vs offload kernels, " + d.label + ", MFLOPS",
			Table: t,
		})
	}
	return sections, nil
}

// study8 regenerates Figures 5.17/5.18: the transposed-B parallel kernels
// against the plain parallel kernels per architecture, with the transpose
// cost charged to the transposed kernel.
func (e *env) study8() ([]Section, error) {
	p := e.params()
	sections := []Section{}
	for _, mc := range machine.Machines() {
		for _, f := range mainFormats {
			t := metrics.NewTable("matrix", "omp", "omp-transposed", "speedup")
			for _, name := range e.cfg.matrixNames() {
				plain, err := e.simParallel(mc, f, name, p.BlockSize, p.K, p.Threads, kernels.InnerTiled)
				if err != nil {
					return nil, fmt.Errorf("study 8: %w", err)
				}
				trans, err := e.simParallel(mc, f, name, p.BlockSize, p.K, p.Threads, kernels.InnerTransB)
				if err != nil {
					return nil, fmt.Errorf("study 8: %w", err)
				}
				speedup := 0.0
				if plain.MFLOPS > 0 {
					speedup = trans.MFLOPS / plain.MFLOPS
				}
				t.AddRow(name, fmtMF(plain.MFLOPS), fmtMF(trans.MFLOPS), fmt.Sprintf("%.2fx", speedup))
			}
			sections = append(sections, Section{
				Title: fmt.Sprintf("Study 8 (Figs 5.17/5.18): transposing B, %s parallel, %s, MFLOPS",
					f, archLabel(mc.Prof)),
				Table: t,
			})
		}
	}
	return sections, nil
}

// study9 regenerates Figure 5.19, the manual optimisations. The thesis
// hard-codes k with C++ templates so the compiler can unroll and vectorise
// the k loop; here every format's k loop is the hand-vectorised row entry
// for any k, so all a compile-time k could still remove is the row entry's
// remainder tiles. The study prices them with the one generic kernel per
// format: k = 128 runs only full tiles (one 128-column tile on an AVX-512
// host, four 32-column ones on AVX2), k = 127 forces 32-column tiles and
// the 16-, 4-wide and scalar tails, and MFLOPS puts both on a per-flop
// footing.
func (e *env) study9() ([]Section, error) {
	sections := []Section{}
	for _, mode := range []string{"serial", "omp"} {
		t := metrics.NewTable("matrix", "format", "k=128", "k=127", "delta")
		for _, name := range e.cfg.matrixNames() {
			for _, f := range mainFormats {
				var mf [2]float64
				for i, k := range []int{128, 127} {
					p := e.params()
					p.K = k
					r, err := e.run(f+"-"+mode, name, e.cfg.Scale, p, core.Options{})
					if err != nil {
						return nil, fmt.Errorf("study 9: %w", err)
					}
					mf[i] = r.MFLOPS
				}
				delta := 0.0
				if mf[1] > 0 {
					delta = (mf[0] - mf[1]) / mf[1] * 100
				}
				t.AddRow(name, f, fmtMF(mf[0]), fmtMF(mf[1]), fmt.Sprintf("%+.1f%%", delta))
			}
		}
		sections = append(sections, Section{
			Title: fmt.Sprintf("Study 9 (Fig 5.19): manual optimisations (aligned k), %s kernels, MFLOPS", mode),
			Table: t,
		})
	}
	return sections, nil
}
