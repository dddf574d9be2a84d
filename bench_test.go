package spmmbench

// One benchmark per table/figure of the thesis' evaluation, plus the
// ablation benches DESIGN.md calls out. Each bench exercises the same code
// path as the corresponding study on a small calibrated matrix and reports
// MFLOPS (the thesis' metric) via b.ReportMetric; `go run ./cmd/spmmstudy`
// regenerates the full data series over all 14 matrices.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
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
			res, err := gpusim.SpMMCSR(dev, csr, bb, c, k)
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
					r, err := mc.CSRParallel(csr, k, threads)
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
					r, err := mc.CSRParallel(csr, 128, t)
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
				r, err := machine.SimulateCSR(prof, csr, 128)
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
				r, err := machine.SimulateBCSR(prof, bcsr, 128)
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
		{"offload-coo", func() (gpusim.LaunchResult, error) { return gpusim.SpMMCOO(dev, m, bb, c, k) }},
		{"vendor-coo", func() (gpusim.LaunchResult, error) { return vendorlib.SpMMCOO(dev, m, bb, c, k) }},
		{"offload-csr", func() (gpusim.LaunchResult, error) { return gpusim.SpMMCSR(dev, csr, bb, c, k) }},
		{"vendor-csr", func() (gpusim.LaunchResult, error) { return vendorlib.SpMMCSR(dev, csr, bb, c, k) }},
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

// BenchmarkStudy8 covers Figures 5.17/5.18: plain vs transposed-B parallel
// kernels (the transpose is charged to the transposed variant).
func BenchmarkStudy8(b *testing.B) {
	m := benchMatrix(b)
	const k = 128
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	csr := formats.CSRFromCOO(m)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	})
	b.Run("transposed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bt := bb.Transpose() // part of the measured work (§5.10)
			if err := kernels.CSR(csr, bt, c, k, kernels.Spec{Threads: 4, Inner: kernels.InnerTransB}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	})
}

// BenchmarkStudy9 covers Figure 5.19: what a compile-time k could still buy
// the one generic kernel — k = 128 runs only the row entry's 32-column
// tiles, k = 127 forces its 16-, 4-wide and scalar tails.
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

// BenchmarkAblationCOOPartition: row-boundary partitioning vs replicated
// private outputs with a reduction.
func BenchmarkAblationCOOPartition(b *testing.B) {
	m := benchMatrix(b)
	const k = 64
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	b.Run("rowpartition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.COO(m, bb, c, k, kernels.Spec{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	})
	b.Run("replicated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.COOParallelReplicated(m, bb, c, k, 4); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	})
}

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

// BenchmarkAblationBCSRBuild: the sorted two-pass BCSR builder (this
// suite's fix) vs the thesis' original map-based block discovery.
func BenchmarkAblationBCSRBuild(b *testing.B) {
	m := benchMatrix(b)
	b.Run("sorted", func(b *testing.B) {
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

// BenchmarkAblationSchedule: OpenMP-style static chunks vs dynamic
// self-scheduling on the most irregular matrix (torso1's huge-row skew is
// where static chunking loses balance).
func BenchmarkAblationSchedule(b *testing.B) {
	m, _, err := gen.GenerateScaled("torso1", 0.02)
	if err != nil {
		b.Fatal(err)
	}
	csr := formats.CSRFromCOO(m)
	const k = 64
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: 4, Schedule: kernels.ScheduleDynamic, Chunk: 32}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	})
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
			res, err := gpusim.SpMMBCSR(dev, bcsr, bb, c, k)
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
			res, err := gpusim.SpMMBELL(dev, bell, bb, c, k)
			if err != nil {
				b.Fatal(err)
			}
			modelled = res.Seconds
		}
		b.ReportMetric(metrics.MFLOPS(kernels.SpMMFlops(m.NNZ(), k), modelled), "model-MFLOPS")
	})
}

// ---- Perf-baseline benches (scripts/bench.sh) ----
//
// These three are the regression gate's subjects: scripts/bench.sh runs
// them with -benchmem, snapshots ns/op, B/op and allocs/op into
// results/bench/BENCH_<date>.json, and fails when a number regresses past
// the tolerance against the previous baseline.

// powerLawBench builds the hub-heavy matrix the scheduling benches use: a
// few rows own most nonzeros, so row-static chunking leaves threads idle.
func powerLawBench(b *testing.B) (*formats.CSR[float64], int) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	m := matrix.NewCOO[float64](4000, 600, 0)
	for i := 0; i < 4000; i++ {
		u := rng.Float64()
		deg := int(u * u * u * 600)
		if i%17 == 0 {
			deg = 0
		}
		if i == 4000/3 {
			deg = 600
		}
		for d := 0; d < deg; d++ {
			m.Append(int32(i), int32(rng.Intn(600)), rng.NormFloat64())
		}
	}
	m.Dedup()
	return formats.CSRFromCOO(m), m.NNZ()
}

// BenchmarkCalculate is the steady-state Calculate cost per format and
// mode. The serial rows double as the zero-allocation audit's perf face:
// their allocs/op column in the committed baseline must read 0.
func BenchmarkCalculate(b *testing.B) {
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
		{"csr-serial", func() error { return kernels.CSR(csr, bb, c, k, kernels.Spec{}) }},
		{"ell-serial", func() error { return kernels.ELL(ell, bb, c, k, kernels.Spec{}) }},
		{"bcsr-serial", func() error { return kernels.BCSR(bcsr, bb, c, k, kernels.Spec{}) }},
		{"csr-omp", func() error { return kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: 4}) }},
		{"ell-omp", func() error { return kernels.ELL(ell, bb, c, k, kernels.Spec{Threads: 4}) }},
		{"bcsr-omp", func() error { return kernels.BCSR(bcsr, bb, c, k, kernels.Spec{Threads: 4}) }},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.fn(); err != nil {
					b.Fatal(err)
				}
			}
			reportMFLOPS(b, m.NNZ(), k)
		})
	}
}

// BenchmarkSchedule races row-static against nonzero-balanced chunking on
// the power-law matrix at 4+ threads — the wall-clock face of the sched
// study. On a multi-core host balanced wins; on a single core the two
// coincide (the partition is precomputed either way).
func BenchmarkSchedule(b *testing.B) {
	csr, nnz := powerLawBench(b)
	const k, threads = 128, 4
	bb := matrix.NewDenseRand[float64](csr.Cols, k, 1)
	c := matrix.NewDense[float64](csr.Rows, k)
	csr.BalancedBounds(threads) // warm the partition cache, as Prepare does
	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: threads}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, nnz, k)
	})
	b.Run("balanced", func(b *testing.B) {
		b.ReportAllocs()
		s := kernels.Spec{Threads: threads, Schedule: kernels.ScheduleBalanced}
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, s); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, nnz, k)
	})
}

// BenchmarkPool races per-call goroutine spawning against the persistent
// worker pool — the dispatch overhead a long campaign amortises away.
func BenchmarkPool(b *testing.B) {
	csr, nnz := powerLawBench(b)
	const k, threads = 128, 4
	bb := matrix.NewDenseRand[float64](csr.Cols, k, 1)
	c := matrix.NewDense[float64](csr.Rows, k)
	b.Run("spawn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{Threads: threads}); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, nnz, k)
	})
	b.Run("pooled", func(b *testing.B) {
		pool := parallel.NewPool(threads)
		defer pool.Close()
		s := kernels.Spec{Threads: threads, Pool: pool}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := kernels.CSR(csr, bb, c, k, s); err != nil {
				b.Fatal(err)
			}
		}
		reportMFLOPS(b, nnz, k)
	})
}

// BenchmarkTraceOverhead pins the tracer's cost contract on the serial CSR
// Calculate. The "disabled" row must read 0 allocs/op and stay within the
// perf gate's tolerance of BenchmarkCalculate/csr-serial — a tracer that
// taxes instrumented-but-untraced runs is a regression even if every other
// number holds. The "enabled" row documents the recording cost for scale.
func BenchmarkTraceOverhead(b *testing.B) {
	m := benchMatrix(b)
	const k = 128
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	csr := formats.CSRFromCOO(m)
	run := func(b *testing.B, tr *trace.Tracer) {
		parallel.SetTracer(tr)
		defer parallel.SetTracer(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := tr.Start()
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{}); err != nil {
				b.Fatal(err)
			}
			tr.EndDetail(0, trace.PhaseCalculate, "csr-serial", s, 0)
		}
		reportMFLOPS(b, m.NNZ(), k)
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, trace.New(8, 1<<10)) // constructed but never enabled
	})
	b.Run("enabled", func(b *testing.B) {
		tr := trace.New(8, 1<<10)
		tr.SetEnabled(true)
		run(b, tr)
	})
}

// BenchmarkObsOverhead pins the metric registry's cost contract on the
// serial CSR Calculate. The "bare" row is the uninstrumented kernel; the
// "instrumented" row adds the same shape of metric traffic the kernels
// dispatch layer emits per call (dispatch counter, rows/nonzeros totals,
// imbalance gauge, one latency observation) against live registered
// instruments. Both rows must read 0 allocs/op — the registry's hot path
// is a handful of atomic adds, and the perf gate holds it there.
func BenchmarkObsOverhead(b *testing.B) {
	m := benchMatrix(b)
	const k = 128
	bb := matrix.NewDenseRand[float64](m.Cols, k, 1)
	c := matrix.NewDense[float64](m.Rows, k)
	csr := formats.CSRFromCOO(m)
	dispatch := obs.NewCounter("spmm_bench_obs_dispatch_total", "bench-only dispatch counter")
	rows := obs.NewCounter("spmm_bench_obs_rows_total", "bench-only rows counter")
	nnz := obs.NewCounter("spmm_bench_obs_nonzeros_total", "bench-only nonzeros counter")
	imbalance := obs.NewGauge("spmm_bench_obs_imbalance_ratio", "bench-only imbalance gauge")
	seconds := obs.NewHistogram("spmm_bench_obs_seconds", "bench-only latency histogram")
	run := func(b *testing.B, instrumented bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := b.Elapsed()
			if err := kernels.CSR(csr, bb, c, k, kernels.Spec{}); err != nil {
				b.Fatal(err)
			}
			if instrumented {
				dispatch.Inc()
				rows.Add(int64(csr.Rows))
				nnz.Add(int64(csr.NNZ()))
				imbalance.Set(1)
				seconds.Observe((b.Elapsed() - start).Seconds())
			}
		}
		reportMFLOPS(b, m.NNZ(), k)
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true) })
}

// BenchmarkPhaseMix runs the full benchmark pipeline (prepare, warm-up,
// calculate, verify) with tracing enabled and reports the per-phase time
// shares and worker idle fraction as custom metrics. perf.Parse stores
// custom units in the baseline JSON, so scripts/bench.sh makes regressions
// in phase *mix* — not just end-to-end ns/op — diffable across baselines.
func BenchmarkPhaseMix(b *testing.B) {
	m := benchMatrix(b)
	tr := trace.New(8, 1<<14)
	tr.SetEnabled(true)
	parallel.SetTracer(tr)
	defer parallel.SetTracer(nil)
	k, err := core.New("csr-omp", core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	p.Reps = 1
	p.Threads = 4
	p.Trace = tr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(k, m, "bcsstk17", p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	mix := metrics.PhaseMixFrom(tr.Summary())
	for _, phase := range []string{trace.PhasePrepare, trace.PhaseCalculate, trace.PhaseVerify} {
		b.ReportMetric(mix.Shares[phase]*100, phase+"-%")
	}
	b.ReportMetric(mix.WorkerIdleFraction*100, "worker-idle-%")
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
