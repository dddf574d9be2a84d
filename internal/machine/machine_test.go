package machine

import (
	"testing"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/kernels"
)

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 0, Ways: 2, LineBytes: 64},
		{SizeBytes: 1000, Ways: 2, LineBytes: 64},   // not line-divisible
		{SizeBytes: 64 * 6, Ways: 2, LineBytes: 64}, // 3 sets: not power of two
		{SizeBytes: 1024, Ways: 2, LineBytes: 48},   // line not power of two
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestMachineCostAccumulation(t *testing.T) {
	m, err := New(GraceArm())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles() != 0 {
		t.Fatal("fresh machine must be at zero")
	}
	m.FMA(80, 1000)
	// 4 pipes * 2 lanes = 8 flops/cycle -> 10 cycles.
	if m.Cycles() != 10 {
		t.Fatalf("FMA cycles %v, want 10", m.Cycles())
	}
	if m.Flops() != 160 {
		t.Fatalf("flops %d, want 160", m.Flops())
	}
	m.Reset()
	m.FMA(8, 1) // vector length 1: scalar FMA, 4 pipes -> 2 cycles
	if m.Cycles() != 2 {
		t.Fatalf("scalar FMA cycles %v, want 2", m.Cycles())
	}
	m.Reset()
	m.Scalar(10)
	if m.Cycles() != 2 { // ScalarIPC 5
		t.Fatalf("scalar cycles %v, want 2", m.Cycles())
	}
}

func TestMachineMemoryHierarchy(t *testing.T) {
	prof := GraceArm()
	m, err := New(prof)
	if err != nil {
		t.Fatal(err)
	}
	// First touch: all-level miss -> demand memory cost.
	m.LoadScalar(0, 8)
	if m.Cycles() != prof.MemCycles {
		t.Fatalf("cold scalar load cost %v, want %v", m.Cycles(), prof.MemCycles)
	}
	before := m.Cycles()
	m.LoadScalar(8, 8) // same line -> L1 hit
	if got := m.Cycles() - before; got < prof.Caches[0].HitCycles-1e-9 || got > prof.Caches[0].HitCycles+1e-9 {
		t.Fatalf("L1 hit cost %v, want %v", got, prof.Caches[0].HitCycles)
	}
	if m.MemMissRate() != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", m.MemMissRate())
	}
}

func TestStreamMissCheaperThanDemandMiss(t *testing.T) {
	prof := AriesX86()
	m1, _ := New(prof)
	m1.LoadRange(0, 64) // one streamed line, cold
	m2, _ := New(prof)
	m2.LoadScalar(0, 8) // one demand line, cold
	if m1.Cycles() >= m2.Cycles() {
		t.Fatalf("streamed miss %v should be cheaper than demand miss %v",
			m1.Cycles(), m2.Cycles())
	}
}

func TestLoadRangeTouchesEachLineOnce(t *testing.T) {
	m, err := New(AriesX86())
	if err != nil {
		t.Fatal(err)
	}
	m.LoadRange(0, 256) // 4 lines of 64B
	if m.accesses != 4 {
		t.Fatalf("range touched %d lines, want 4", m.accesses)
	}
	m.LoadRange(32, 64) // straddles two (now cached) lines
	if m.accesses != 6 {
		t.Fatalf("straddling range: %d touches, want 6", m.accesses)
	}
}

func TestIrregularPenaltyScalesWithLines(t *testing.T) {
	prof := GraceArm()
	m1, _ := New(prof)
	m1.LoadIrregular(0, 64)
	m2, _ := New(prof)
	m2.LoadIrregular(0, 1024) // 16 lines
	p1 := m1.Cycles() - func() float64 { m, _ := New(prof); m.loadRangeDemand(0, 64); return m.Cycles() }()
	p16 := m2.Cycles() - func() float64 { m, _ := New(prof); m.loadRangeDemand(0, 1024); return m.Cycles() }()
	if p16 != 16*p1 {
		t.Fatalf("penalty must scale with lines: %v vs 16*%v", p16, p1)
	}
}

func TestProfileValidation(t *testing.T) {
	bad := GraceArm()
	bad.FMAPipes = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestSimulationsProduceConsistentResults(t *testing.T) {
	m, _, err := gen.GenerateScaled("bcsstk13", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	k := 64
	csr := formats.CSRFromCOO(m)
	for _, prof := range Profiles() {
		r1, err := Simulate(prof, csr, k, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Simulate(prof, csr, k, kernels.InnerTiled)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("%s: nondeterministic simulation", prof.Name)
		}
		if r1.Seconds <= 0 || r1.MFLOPS <= 0 || r1.Arch != prof.Name {
			t.Fatalf("%s: nonsense result %+v", prof.Name, r1)
		}
	}
}

// TestArchitectureShape locks in the Study 6 headline: the x86 profile wins
// the gather-bound scalar formats, the Arm profile wins BCSR at every block
// size (§5.8: "For COO, CSR, and ELLPACK, the Aries versions all performed
// better. The opposite was true on BCSR.").
func TestArchitectureShape(t *testing.T) {
	grace, aries := GraceArm(), AriesX86()
	k := 128
	for _, name := range []string{"cant", "bcsstk17", "2cubes_sphere", "dw4096"} {
		m, _, err := gen.GenerateScaled(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		csr := formats.CSRFromCOO(m)
		ell := formats.ELLFromCOO(m, formats.RowMajor)

		gCOO, _ := Simulate(grace, m, k, kernels.InnerTiled)
		aCOO, _ := Simulate(aries, m, k, kernels.InnerTiled)
		if aCOO.MFLOPS <= gCOO.MFLOPS {
			t.Errorf("%s: COO should favour x86 (%0.f vs %0.f)", name, aCOO.MFLOPS, gCOO.MFLOPS)
		}
		gCSR, _ := Simulate(grace, csr, k, kernels.InnerTiled)
		aCSR, _ := Simulate(aries, csr, k, kernels.InnerTiled)
		if aCSR.MFLOPS <= gCSR.MFLOPS {
			t.Errorf("%s: CSR should favour x86 (%0.f vs %0.f)", name, aCSR.MFLOPS, gCSR.MFLOPS)
		}
		gELL, _ := Simulate(grace, ell, k, kernels.InnerTiled)
		aELL, _ := Simulate(aries, ell, k, kernels.InnerTiled)
		if aELL.MFLOPS <= gELL.MFLOPS {
			t.Errorf("%s: ELL should favour x86 (%0.f vs %0.f)", name, aELL.MFLOPS, gELL.MFLOPS)
		}
		for _, bs := range []int{2, 4, 16} {
			b, err := formats.BCSRFromCOO(m, bs, bs)
			if err != nil {
				t.Fatal(err)
			}
			gB, _ := Simulate(grace, b, k, kernels.InnerTiled)
			aB, _ := Simulate(aries, b, k, kernels.InnerTiled)
			if gB.MFLOPS <= aB.MFLOPS {
				t.Errorf("%s: BCSR b=%d should favour Arm (%0.f vs %0.f)",
					name, bs, gB.MFLOPS, aB.MFLOPS)
			}
		}
	}
}

// TestBCSRBlockSizeTrend locks in Study 5's serial trend: bigger blocks do
// increasingly worse.
func TestBCSRBlockSizeTrend(t *testing.T) {
	m, _, err := gen.GenerateScaled("2cubes_sphere", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range Profiles() {
		var prev float64
		for i, bs := range []int{2, 4, 16} {
			b, err := formats.BCSRFromCOO(m, bs, bs)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Simulate(prof, b, 128, kernels.InnerTiled)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && r.MFLOPS >= prev {
				t.Errorf("%s: block %d (%0.f MFLOPS) should be slower than the previous size (%0.f)",
					prof.Name, bs, r.MFLOPS, prev)
			}
			prev = r.MFLOPS
		}
	}
}

func TestELLPaddingHurtsHighRatioMatrix(t *testing.T) {
	// torso1-like skew: ELL should fall far behind CSR on the same matrix.
	m, _, err := gen.GenerateScaled("torso1", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	prof := AriesX86()
	csr, _ := Simulate(prof, formats.CSRFromCOO(m), 128, kernels.InnerTiled)
	ell, _ := Simulate(prof, formats.ELLFromCOO(m, formats.RowMajor), 128, kernels.InnerTiled)
	if ell.MFLOPS >= csr.MFLOPS*0.65 {
		t.Errorf("high-ratio matrix: ELL %0.f should badly trail CSR %0.f", ell.MFLOPS, csr.MFLOPS)
	}
}

func TestRMWRangeMatchesLoadPlusStore(t *testing.T) {
	prof := AriesX86()
	a, _ := New(prof)
	a.LoadRange(1<<20, 512)
	a.StoreRange(1<<20, 512)
	b, _ := New(prof)
	b.RMWRange(1<<20, 512)
	if a.Cycles() != b.Cycles() {
		t.Fatalf("cycles differ: %v vs %v", a.Cycles(), b.Cycles())
	}
	if a.accesses != b.accesses || a.memMiss != b.memMiss {
		t.Fatalf("accounting differs: %d/%d vs %d/%d", a.accesses, a.memMiss, b.accesses, b.memMiss)
	}
}
