package machine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

func benchFixture(t *testing.T, name string, scale float64) (*formats.CSR[float64], *formats.BCSR[float64]) {
	t.Helper()
	m, _, err := gen.GenerateScaled(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	csr := formats.CSRFromCOO(m)
	bcsr, err := formats.BCSRFromCOO(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return csr, bcsr
}

func TestMulticoreValidation(t *testing.T) {
	bad := GraceMachine()
	bad.Cores = 0
	if _, err := bad.Simulate(&formats.CSR[float64]{Rows: 1, RowPtr: []int32{0, 0}}, 8, 4, kernels.ScheduleStatic, kernels.InnerTiled); err == nil {
		t.Fatal("invalid multicore config accepted")
	}
	good := GraceMachine()
	if _, err := good.Simulate(&formats.CSR[float64]{Rows: 1, RowPtr: []int32{0, 0}, Cols: 1}, 8, 0, kernels.ScheduleStatic, kernels.InnerTiled); err == nil {
		t.Fatal("threads=0 accepted")
	}
}

func TestMulticoreDeterministic(t *testing.T) {
	csr, _ := benchFixture(t, "bcsstk17", 0.2)
	mc := AriesMachine()
	r1, err := mc.Simulate(csr, 64, 16, kernels.ScheduleStatic, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mc.Simulate(csr, 64, 16, kernels.ScheduleStatic, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("multicore simulation must be deterministic")
	}
}

// TestParallelSpeedupRealistic locks in the headline of Studies 1–3: the
// parallel kernels beat serial by roughly the factors the thesis measured
// ("the parallel to serial speedup on Arm was 5-6x ... For Aries, the
// speedup was around 4x", §5.3) — far from linear in the thread count.
func TestParallelSpeedupRealistic(t *testing.T) {
	csr, _ := benchFixture(t, "cant", 0.05)
	for _, mc := range Machines() {
		serial, err := Simulate(mc.Prof, csr, 128, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		par, err := mc.Simulate(csr, 128, 32, kernels.ScheduleStatic, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		speedup := par.MFLOPS / serial.MFLOPS
		if speedup < 3 || speedup > 10 {
			t.Errorf("%s: 32-thread speedup %.1fx outside the realistic 3-10x band",
				mc.Prof.Name, speedup)
		}
	}
}

// TestGraceScalesToHighThreadCounts locks in the Arm half of Study 3.1:
// on the 72-core no-SMT socket, high thread counts win on large matrices —
// the best count is at least 48, and running flat out at 72 stays within a
// few percent of the peak (the thesis found 72 best for most, not all,
// matrices: Fig 5.7).
func TestGraceScalesToHighThreadCounts(t *testing.T) {
	mc := GraceMachine()
	for _, name := range []string{"cant", "2cubes_sphere", "cop20k_A"} {
		csr, _ := benchFixture(t, name, 0.05)
		best, bestT := -1.0, 0
		var at72 float64
		for _, threads := range []int{2, 4, 8, 16, 32, 48, 64, 72} {
			r, err := mc.Simulate(csr, 128, threads, kernels.ScheduleStatic, kernels.InnerTiled)
			if err != nil {
				t.Fatal(err)
			}
			if r.MFLOPS > best {
				best, bestT = r.MFLOPS, threads
			}
			if threads == 72 {
				at72 = r.MFLOPS
			}
		}
		if bestT < 48 {
			t.Errorf("Grace/%s: best thread count %d; large matrices should peak high", name, bestT)
		}
		if at72 < best*0.9 {
			t.Errorf("Grace/%s: 72 threads (%.0f) should be within 10%% of the peak (%.0f)",
				name, at72, best)
		}
	}
}

// TestAriesHyperthreadingHelpsBlockedFormats locks in the x86 half of
// Study 3.1: beyond the 48 physical cores, oversubscription pays off for
// BCSR ("BCSR in particular seemed to do the best with hyperthreading")
// while CSR peaks at or below the physical core count.
func TestAriesHyperthreadingHelpsBlockedFormats(t *testing.T) {
	mc := AriesMachine()
	// Large matrices only: tiny ones are cache-resident, and their SMT
	// behaviour is dominated by fork/join noise.
	for _, name := range []string{"cant", "2cubes_sphere"} {
		csr, bcsr := benchFixture(t, name, 0.05)
		c48, err := mc.Simulate(csr, 128, 48, kernels.ScheduleStatic, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		c72, err := mc.Simulate(csr, 128, 72, kernels.ScheduleStatic, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		if c72.MFLOPS > c48.MFLOPS*1.05 {
			t.Errorf("%s: CSR should not gain much from hyperthreading (48t %.0f vs 72t %.0f)",
				name, c48.MFLOPS, c72.MFLOPS)
		}
		b48, err := mc.Simulate(bcsr, 128, 48, kernels.ScheduleStatic, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		b72, err := mc.Simulate(bcsr, 128, 72, kernels.ScheduleStatic, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		if b72.MFLOPS <= b48.MFLOPS {
			t.Errorf("%s: BCSR should benefit from hyperthreading (48t %.0f vs 72t %.0f)",
				name, b48.MFLOPS, b72.MFLOPS)
		}
	}
}

// TestTransposeUsuallyLoses locks in Study 8's shape: the transposed-B
// kernels lose on typical FEM matrices on both sockets.
func TestTransposeUsuallyLoses(t *testing.T) {
	for _, name := range []string{"cant", "2cubes_sphere", "bcsstk17"} {
		csr, _ := benchFixture(t, name, 0.05)
		for _, mc := range Machines() {
			plain, err := mc.Simulate(csr, 128, 32, kernels.ScheduleStatic, kernels.InnerTiled)
			if err != nil {
				t.Fatal(err)
			}
			trans, err := mc.Simulate(csr, 128, 32, kernels.ScheduleStatic, kernels.InnerTransB)
			if err != nil {
				t.Fatal(err)
			}
			if trans.MFLOPS >= plain.MFLOPS {
				t.Errorf("%s/%s: transposed (%.0f) should lose to plain (%.0f)",
					mc.Prof.Name, name, trans.MFLOPS, plain.MFLOPS)
			}
		}
	}
}

// TestTransposedKernelsCoverAllFormats exercises every transposed parallel
// simulation for basic sanity.
func TestTransposedKernelsCoverAllFormats(t *testing.T) {
	m, _, err := gen.GenerateScaled("bcsstk13", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	csr := formats.CSRFromCOO(m)
	ell := formats.ELLFromCOO(m, formats.RowMajor)
	bcsr, err := formats.BCSRFromCOO(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mc := GraceMachine()
	for label, run := range map[string]func() (Result, error){
		"coo-t":  func() (Result, error) { return mc.Simulate(m, 64, 8, kernels.ScheduleStatic, kernels.InnerTransB) },
		"csr-t":  func() (Result, error) { return mc.Simulate(csr, 64, 8, kernels.ScheduleStatic, kernels.InnerTransB) },
		"ell-t":  func() (Result, error) { return mc.Simulate(ell, 64, 8, kernels.ScheduleStatic, kernels.InnerTransB) },
		"bcsr-t": func() (Result, error) { return mc.Simulate(bcsr, 64, 8, kernels.ScheduleStatic, kernels.InnerTransB) },
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if r.Seconds <= 0 || r.MFLOPS <= 0 {
			t.Fatalf("%s: nonsense result %+v", label, r)
		}
	}
}

// TestSerialTransposeSimulation covers the serial transposed CSR entry
// point (used by spot checks and examples).
func TestSerialTransposeSimulation(t *testing.T) {
	csr, _ := benchFixture(t, "bcsstk13", 0.5)
	for _, prof := range Profiles() {
		r, err := Simulate(prof, csr, 64, kernels.InnerTransB)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Simulate(prof, csr, 64, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		if r.MFLOPS >= plain.MFLOPS {
			t.Errorf("%s: serial transposed (%.0f) should lose to plain (%.0f)",
				prof.Name, r.MFLOPS, plain.MFLOPS)
		}
	}
}

// powerLawCSR builds a hub-heavy matrix whose row degrees follow a cubed-
// uniform draw — a few rows own most of the nonzeros, the skew that breaks
// row-static scheduling. Mirrors the fixture the kernels package tests use.
func powerLawCSR(rows, cols int, seed int64) *formats.CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[float64](rows, cols, 0)
	for i := 0; i < rows; i++ {
		u := rng.Float64()
		deg := int(u * u * u * float64(cols))
		if i%17 == 0 {
			deg = 0
		}
		if i == rows/3 {
			deg = cols
		}
		for d := 0; d < deg; d++ {
			m.Append(int32(i), int32(rng.Intn(cols)), rng.NormFloat64())
		}
	}
	m.Dedup()
	return formats.CSRFromCOO(m)
}

// TestBalancedBeatsStaticOnSkewedMatrix locks in the point of the
// nonzero-balanced schedule: on a power-law (hub-heavy) matrix, the
// simulated wall clock is set by the slowest core, and under row-static
// chunking that core owns the hub rows. Balancing by nonzeros must win at
// every thread count >= 4 on both socket models — and must NOT lose on a
// uniform matrix, where the two schedules nearly coincide.
func TestBalancedBeatsStaticOnSkewedMatrix(t *testing.T) {
	skew := powerLawCSR(4000, 600, 5)
	for _, mc := range Machines() {
		for _, threads := range []int{4, 8, 16, 32} {
			static, err := mc.Simulate(skew, 128, threads, kernels.ScheduleStatic, kernels.InnerTiled)
			if err != nil {
				t.Fatal(err)
			}
			balanced, err := mc.Simulate(skew, 128, threads, kernels.ScheduleBalanced, kernels.InnerTiled)
			if err != nil {
				t.Fatal(err)
			}
			if balanced.MFLOPS <= static.MFLOPS {
				t.Errorf("%s t=%d: balanced (%.0f MFLOPS) should beat static (%.0f) on skew",
					mc.Prof.Name, threads, balanced.MFLOPS, static.MFLOPS)
			}
		}
	}
	uniform, _ := benchFixture(t, "cant", 0.05)
	mc := GraceMachine()
	static, err := mc.Simulate(uniform, 128, 32, kernels.ScheduleStatic, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := mc.Simulate(uniform, 128, 32, kernels.ScheduleBalanced, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	if balanced.MFLOPS < static.MFLOPS*0.9 {
		t.Errorf("uniform matrix: balanced (%.0f) should stay within 10%% of static (%.0f)",
			balanced.MFLOPS, static.MFLOPS)
	}
}

// TestThreadsClampToWork ensures more threads than rows degrades gracefully.
func TestThreadsClampToWork(t *testing.T) {
	m, _, err := gen.GenerateScaled("bcsstk13", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	csr := formats.CSRFromCOO(m)
	mc := GraceMachine()
	r, err := mc.Simulate(csr, 32, 10*csr.Rows, kernels.ScheduleStatic, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	if r.MFLOPS <= 0 {
		t.Fatal("oversubscribed run produced nonsense")
	}
}

// TestSmallMatrixPrefersFewThreads locks in the fork/join effect the
// thesis saw on small matrices: tiny inputs peak well below the maximum
// thread count.
func TestSmallMatrixPrefersFewThreads(t *testing.T) {
	csr, _ := benchFixture(t, "bcsstk13", 0.3) // ~600 rows
	mc := GraceMachine()
	best, bestT := -1.0, 0
	for _, threads := range []int{2, 4, 8, 16, 32, 48, 64, 72} {
		r, err := mc.Simulate(csr, 128, threads, kernels.ScheduleStatic, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		if r.MFLOPS > best {
			best, bestT = r.MFLOPS, threads
		}
	}
	if bestT > 48 {
		t.Errorf("tiny matrix peaked at %d threads; fork/join should cap it lower", bestT)
	}
}

// TestSimulateRejectsWhatItDoesNotModel: the formats without a trace, the
// dynamic schedule, and a balanced schedule outside CSR are kernels.ErrSpec
// from both entries.
func TestSimulateRejectsWhatItDoesNotModel(t *testing.T) {
	m, _, err := gen.GenerateScaled("bcsstk13", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	mc := GraceMachine()
	for _, f := range []string{"bell", "sellcs"} {
		a, err := formats.FromCOO(f, m, formats.Params{Block: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Simulate(mc.Prof, a, 8, kernels.InnerTiled); !errors.Is(err, kernels.ErrSpec) {
			t.Errorf("serial %s: err = %v, want ErrSpec", f, err)
		}
		if _, err := mc.Simulate(a, 8, 4, kernels.ScheduleStatic, kernels.InnerTiled); !errors.Is(err, kernels.ErrSpec) {
			t.Errorf("parallel %s: err = %v, want ErrSpec", f, err)
		}
	}
	for _, c := range []struct {
		format string
		sched  kernels.Schedule
	}{
		{"coo", kernels.ScheduleBalanced},
		{"ell", kernels.ScheduleBalanced},
		{"bcsr", kernels.ScheduleBalanced},
	} {
		a, err := formats.FromCOO(c.format, m, formats.Params{Block: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mc.Simulate(a, 8, 4, c.sched, kernels.InnerTiled); !errors.Is(err, kernels.ErrSpec) {
			t.Errorf("%s %s: err = %v, want ErrSpec", c.format, c.sched, err)
		}
	}
}
