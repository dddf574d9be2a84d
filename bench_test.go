package spmmbench

// One benchmark per table/figure of the thesis' evaluation, plus the
// ablation benches DESIGN.md calls out. Each bench exercises the same code
// path as the corresponding study on a small calibrated matrix and reports
// MFLOPS (the thesis' metric) via b.ReportMetric; `go run ./cmd/spmmstudy`
// regenerates the full data series over all 14 matrices.

import (
	"fmt"
	"testing"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/vendorlib"
)

// benchMatrix returns the shared benchmark input: bcsstk17 at half size
// (≈5.5k rows, ≈110k nonzeros) — big enough to be memory-realistic, small
// enough for -bench=. to finish quickly.
func benchMatrix(b *testing.B) *matrix.COO[float64] {
	b.Helper()
	m, _, err := gen.GenerateScaled("bcsstk17", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func reportMFLOPS(b *testing.B, nnz, k int) {
	b.Helper()
	secs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(metrics.MFLOPS(kernels.SpMMFlops(nnz, k), secs), "MFLOPS")
}

// BenchmarkTable5_1 regenerates the matrix-properties computation behind
// Table 5.1.
func BenchmarkTable5_1(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := metrics.Compute(m)
		if p.NNZ == 0 {
			b.Fatal("no nonzeros")
		}
	}
}

// BenchmarkStudy1 covers Figures 5.1/5.2: every format's serial and
// parallel kernel (the GPU panel is in BenchmarkStudy7's device path).
func BenchmarkStudy1(b *testing.B) {
	m := benchMatrix(b)
	const k = 128
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	csr := formats.CSRFromCOO(m)
	ell := formats.ELLFromCOO(m, formats.RowMajor)
	bcsr, err := formats.BCSRFromCOO(m, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	runs := []struct {
		name string
		fn   func() error
	}{
		{"coo-serial", func() error { return kernels.COO(m, bb, c, k, kernels.Spec{}) }},
		{"csr-serial", func() error { return kernels.CSR(csr, bb, c, k, kernels.Spec{}) }},
		{"ell-serial", func() error { return kernels.ELL(ell, bb, c, k, kernels.Spec{}) }},
		{"bcsr-serial", func() error { return kernels.BCSR(bcsr, bb, c, k, kernels.Spec{}) }},
		{"coo-omp", func() error { return kernels.COO(m, bb, c, k, kernels.Spec{Threads: 4}) }},
		{"csr-omp", func() error { return kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: 4}) }},
		{"ell-omp", func() error { return kernels.ELL(ell, bb, c, k, kernels.Spec{Threads: 4}) }},
		{"bcsr-omp", func() error { return kernels.BCSR(bcsr, bb, c, k, kernels.Spec{Threads: 4}) }},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.fn(); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, m.NNZ(), k)
		})
	}
}

// BenchmarkStudy2 covers Figures 5.3/5.4: the kernel forms of one format
// (CSR) head to head, including the simulated-GPU form.
func BenchmarkStudy2(b *testing.B) {
	m := benchMatrix(b)
	const k = 128
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	csr := formats.CSRFromCOO(m)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	})
	b.Run("omp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	})
	b.Run("gpu", func(b *testing.B) {
		dev, err := gpusim.NewDevice(gpusim.H100Like().ScaledDown(0.05))
		if err != nil {
			b.Fatal(err)
		}
		var modelled float64
		for i := 0; i < b.N; i++ {
			res, err := gpusim.SpMM(dev, csr, bb, c, k, kernels.InnerTiled)
			if err != nil {
				b.Fatal(err)
			}
			modelled = res.Seconds
		}
		b.ReportMetric(metrics.MFLOPS(kernels.SpMMFlops(m.NNZ(), k), modelled), "model-MFLOPS")
	})
}

// BenchmarkStudy3 covers Figures 5.5/5.6: thread scaling on the simulated
// sockets (modelled MFLOPS) at the thread counts the thesis used.
func BenchmarkStudy3(b *testing.B) {
	m := benchMatrix(b)
	csr := formats.CSRFromCOO(m)
	const k = 128
	for _, mc := range machine.Machines() {
		for _, threads := range []int{8, 16, 32} {
			b.Run(fmt.Sprintf("%s/t%d", mc.Prof.Name, threads), func(b *testing.B) {
				var mf float64
				for i := 0; i < b.N; i++ {
					r, err := mc.Simulate(csr, k, threads, kernels.ScheduleStatic, kernels.InnerTiled)
					if err != nil {
						b.Fatal(err)
					}
					mf = r.MFLOPS
				}
				b.ReportMetric(mf, "model-MFLOPS")
			})
		}
	}
}

// BenchmarkStudy3_1 covers Figures 5.7/5.8: the full best-thread-count
// sweep on one matrix per socket.
func BenchmarkStudy3_1(b *testing.B) {
	m := benchMatrix(b)
	csr := formats.CSRFromCOO(m)
	threadList := []int{2, 4, 8, 16, 32, 48, 64, 72}
	for _, mc := range machine.Machines() {
		b.Run(mc.Prof.Name, func(b *testing.B) {
			best := 0
			for i := 0; i < b.N; i++ {
				bestMF := -1.0
				for _, t := range threadList {
					r, err := mc.Simulate(csr, 128, t, kernels.ScheduleStatic, kernels.InnerTiled)
					if err != nil {
						b.Fatal(err)
					}
					if r.MFLOPS > bestMF {
						bestMF, best = r.MFLOPS, t
					}
				}
			}
			b.ReportMetric(float64(best), "best-threads")
		})
	}
}

// BenchmarkStudy4 covers Figures 5.9/5.10: the k-loop sweep.
func BenchmarkStudy4(b *testing.B) {
	m := benchMatrix(b)
	csr := formats.CSRFromCOO(m)
	for _, k := range []int{8, 16, 64, 128, 256, 512, 1028} {
		bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
		c := matrix.NewDense[float64](m.Rows, k)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: 4}); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, m.NNZ(), k)
		})
	}
}

// BenchmarkStudy5 covers Figures 5.11/5.12: BCSR block sizes.
func BenchmarkStudy5(b *testing.B) {
	m := benchMatrix(b)
	const k = 128
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	for _, block := range []int{2, 4, 16} {
		bcsr, err := formats.BCSRFromCOO(m, block, block)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("serial/b%d", block), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kernels.BCSR(bcsr, bb, c, k, kernels.Spec{}); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, m.NNZ(), k)
		})
		b.Run(fmt.Sprintf("omp/b%d", block), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kernels.BCSR(bcsr, bb, c, k, kernels.Spec{Threads: 4}); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, m.NNZ(), k)
		})
	}
}

// BenchmarkStudy6 covers Figures 5.13/5.14: the serial architecture cost
// models (Grace-Arm vs Aries-x86).
func BenchmarkStudy6(b *testing.B) {
	m := benchMatrix(b)
	csr := formats.CSRFromCOO(m)
	bcsr, err := formats.BCSRFromCOO(m, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, prof := range machine.Profiles() {
		b.Run(prof.Name+"/csr", func(b *testing.B) {
			var mf float64
			for i := 0; i < b.N; i++ {
				r, err := machine.Simulate(prof, csr, 128, kernels.InnerTiled)
				if err != nil {
					b.Fatal(err)
				}
				mf = r.MFLOPS
			}
			b.ReportMetric(mf, "model-MFLOPS")
		})
		b.Run(prof.Name+"/bcsr4", func(b *testing.B) {
			var mf float64
			for i := 0; i < b.N; i++ {
				r, err := machine.Simulate(prof, bcsr, 128, kernels.InnerTiled)
				if err != nil {
					b.Fatal(err)
				}
				mf = r.MFLOPS
			}
			b.ReportMetric(mf, "model-MFLOPS")
		})
	}
}

// BenchmarkStudy7 covers Figures 5.15/5.16: vendor-library vs naive
// offload kernels on the simulated device.
func BenchmarkStudy7(b *testing.B) {
	m := benchMatrix(b)
	const k = 128
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	csr := formats.CSRFromCOO(m)
	dev, err := gpusim.NewDevice(gpusim.H100Like().ScaledDown(0.05))
	if err != nil {
		b.Fatal(err)
	}
	runs := []struct {
		name string
		fn   func() (gpusim.LaunchResult, error)
	}{
		{"offload-coo", func() (gpusim.LaunchResult, error) { return gpusim.SpMM(dev, m, bb, c, k, kernels.InnerTiled) }},
		{"vendor-coo", func() (gpusim.LaunchResult, error) { return vendorlib.SpMM(dev, m, bb, c, k) }},
		{"offload-csr", func() (gpusim.LaunchResult, error) { return gpusim.SpMM(dev, csr, bb, c, k, kernels.InnerTiled) }},
		{"vendor-csr", func() (gpusim.LaunchResult, error) { return vendorlib.SpMM(dev, csr, bb, c, k) }},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			var modelled float64
			for i := 0; i < b.N; i++ {
				res, err := r.fn()
				if err != nil {
					b.Fatal(err)
				}
				modelled = res.Seconds
			}
			b.ReportMetric(metrics.MFLOPS(kernels.SpMMFlops(m.NNZ(), k), modelled), "model-MFLOPS")
		})
	}
}

// BenchmarkStudy9 covers Figure 5.19: what a compile-time k could still buy
// the one generic kernel — k = 128 runs only the row entry's full tiles
// (128 columns on AVX-512, 32 on AVX2), k = 127 forces its 32-column tiles
// and 16-, 4-wide and scalar tails.
func BenchmarkStudy9(b *testing.B) {
	m := benchMatrix(b)
	csr := formats.CSRFromCOO(m)
	for _, k := range []int{128, 127} {
		bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
		c := matrix.NewDense[float64](m.Rows, k)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kernels.CSR(csr, bb, c, k, kernels.Spec{}); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, m.NNZ(), k)
		})
	}
}

// ---- Ablation benches (DESIGN.md §4) ----

// BenchmarkAblationELLLayout: row-major vs column-major ELL storage on the
// CPU kernel (the GPU side of this ablation is asserted in gpusim's tests).
func BenchmarkAblationELLLayout(b *testing.B) {
	m := benchMatrix(b)
	const k = 64
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	for _, layout := range []formats.ELLLayout{formats.RowMajor, formats.ColMajor} {
		ell := formats.ELLFromCOO(m, layout)
		b.Run(layout.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kernels.ELL(ell, bb, c, k, kernels.Spec{}); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, m.NNZ(), k)
		})
	}
}

// BenchmarkAblationBCSRBuild: the counting-sort BCSR builder (this suite's
// fix) vs the thesis' original map-based block discovery.
func BenchmarkAblationBCSRBuild(b *testing.B) {
	m := benchMatrix(b)
	b.Run("counting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := formats.BCSRFromCOO(m, 4, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := formats.BCSRFromCOOMap(m, 4, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationValueType: float64 vs float32 values — the memory
// footprint/bandwidth trade of future-work §6.3.5.
func BenchmarkAblationValueType(b *testing.B) {
	m64 := benchMatrix(b)
	m32 := matrix.NewCOO[float32](m64.Rows, m64.Cols, m64.NNZ())
	for i := range m64.Vals {
		m32.Append(m64.RowIdx[i], m64.ColIdx[i], float32(m64.Vals[i]))
	}
	const k = 128
	b.Run("float64", func(b *testing.B) {
		csr := formats.CSRFromCOO(m64)
		bb := matrix.NewDenseRand[float64](m64.Cols, k, 1)
		c := matrix.NewDense[float64](m64.Rows, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m64.NNZ(), k)
	})
	b.Run("float32", func(b *testing.B) {
		csr := formats.CSRFromCOO(m32)
		bb := matrix.NewDenseRand[float32](m32.Cols, k, 1)
		c := matrix.NewDense[float32](m32.Rows, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m32.NNZ(), k)
	})
}

// BenchmarkAblationSchedule: the parallel work partition and dispatch on the
// most irregular matrix (torso1's huge-row skew is where static chunking
// loses balance). Each row differs from "static" (OpenMP-style equal-row
// chunks on the process pool, parallel.Default) in one thing: "balanced"
// chunks by nonzeros, "pooled" runs the static chunks on a pool of its own
// sized to the thread count. On either pool the caller joins the workers
// and all of them claim the chunks' pieces from one counter.
func BenchmarkAblationSchedule(b *testing.B) {
	m, _, err := gen.GenerateScaled("torso1", 0.02)
	if err != nil {
		b.Fatal(err)
	}
	csr := formats.CSRFromCOO(m)
	const k, threads = 64, 4
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	csr.BalancedBounds(threads) // warm the partition cache, as Prepare does
	pool := parallel.NewPool(threads)
	defer pool.Close()
	runs := []struct {
		name string
		spec kernels.Spec
	}{
		{"static", kernels.Spec{Threads: threads}},
		{"balanced", kernels.Spec{Threads: threads, Schedule: kernels.ScheduleBalanced}},
		{"pooled", kernels.Spec{Threads: threads, Pool: pool}},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := kernels.CSR(csr, bb, c, k, r.spec); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, m.NNZ(), k)
		})
	}
}

// BenchmarkAblationBlockedGPU: BCSR vs Blocked-ELL on the simulated GPU.
// BELL's uniform block-row width removes the divergence BCSR's variable
// block counts cause, but pads every block row to the widest; which effect
// dominates depends on the matrix's block-count skew.
func BenchmarkAblationBlockedGPU(b *testing.B) {
	m := benchMatrix(b)
	const k = 128
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	dev, err := gpusim.NewDevice(gpusim.H100Like().ScaledDown(0.05))
	if err != nil {
		b.Fatal(err)
	}
	bcsr, err := formats.BCSRFromCOO(m, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	bell, err := formats.BELLFromCOO(m, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bcsr", func(b *testing.B) {
		var modelled float64
		for i := 0; i < b.N; i++ {
			res, err := gpusim.SpMM(dev, bcsr, bb, c, k, kernels.InnerTiled)
			if err != nil {
				b.Fatal(err)
			}
			modelled = res.Seconds
		}
		b.ReportMetric(metrics.MFLOPS(kernels.SpMMFlops(m.NNZ(), k), modelled), "model-MFLOPS")
	})
	b.Run("bell", func(b *testing.B) {
		var modelled float64
		for i := 0; i < b.N; i++ {
			res, err := gpusim.SpMM(dev, bell, bb, c, k, kernels.InnerTiled)
			if err != nil {
				b.Fatal(err)
			}
			modelled = res.Seconds
		}
		b.ReportMetric(metrics.MFLOPS(kernels.SpMMFlops(m.NNZ(), k), modelled), "model-MFLOPS")
	})
}

// BenchmarkSpMV is the §6.3.4 SpMV reading: the six formats' lattice
// kernels at k = 1, serial.
func BenchmarkSpMV(b *testing.B) {
	m := benchMatrix(b)
	x := matrix.NewDenseRand[float64](m.Cols, 1, 7)
	y := matrix.NewDense[float64](m.Rows, 1)
	for _, format := range []string{"coo", "csr", "ell", "bcsr", "bell", "sellcs"} {
		a, err := formats.FromCOO(format, m, formats.Params{Block: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(format, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kernels.Multiply(a, x, y, 1, kernels.Spec{}); err != nil {
					b.Fatal(err)
				}
			}
			secs := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(metrics.MFLOPS(kernels.SpMMFlops(m.NNZ(), 1), secs), "MFLOPS")
		})
	}
}
