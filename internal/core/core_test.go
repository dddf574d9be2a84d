package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

func testCOO(seed int64, rows, cols, nnz int) *matrix.COO[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[float64](rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
	}
	m.Dedup()
	return m
}

func smallParams() Params {
	p := DefaultParams()
	p.Reps = 2
	p.Threads = 4
	p.K = 16
	return p
}

func gpuOptions(t *testing.T) Options {
	t.Helper()
	dev, err := gpusim.NewDevice(gpusim.TestDevice(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	return Options{Device: dev}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	// 4 main formats × {serial, omp} × {plain, -t} = 16,
	// bell/sellcs × {serial, omp} = 4, 5 gpu + 1 gpu-t + 2 vendor gpu = 8.
	golden := []string{
		"bcsr-gpu", "bcsr-omp", "bcsr-omp-t", "bcsr-serial", "bcsr-serial-t",
		"bell-gpu", "bell-omp", "bell-serial",
		"coo-gpu", "coo-omp", "coo-omp-t", "coo-serial", "coo-serial-t",
		"csr-gpu", "csr-gpu-t", "csr-omp", "csr-omp-t", "csr-serial", "csr-serial-t",
		"ell-gpu", "ell-omp", "ell-omp-t", "ell-serial", "ell-serial-t",
		"sellcs-omp", "sellcs-serial", "vendor-coo-gpu", "vendor-csr-gpu",
	}
	if len(golden) != 28 || !slices.Equal(names, golden) {
		t.Fatalf("registry names changed:\n got %v\nwant %v", names, golden)
	}
	for _, want := range golden {
		k, err := New(want, gpuOptions(t))
		if err != nil {
			t.Errorf("kernel %q: %v", want, err)
		} else if k.Name() != want {
			t.Errorf("kernel %q names itself %q", want, k.Name())
		}
	}
	if _, err := New("no-such-kernel", Options{}); !errors.Is(err, ErrUnknownKernel) {
		t.Fatal("unknown kernel accepted")
	}
}

func TestGPUKernelsRequireDevice(t *testing.T) {
	for _, name := range []string{"coo-gpu", "vendor-csr-gpu"} {
		if _, err := New(name, Options{}); err == nil {
			t.Errorf("%s: missing device accepted", name)
		}
	}
}

func TestRunAllKernelsVerified(t *testing.T) {
	a := testCOO(1, 60, 60, 400)
	opts := gpuOptions(t)
	for _, name := range Names() {
		k, err := New(name, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := Run(k, a, "test", smallParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Verified {
			t.Fatalf("%s: not verified", name)
		}
		if r.MFLOPS <= 0 || r.AvgSeconds <= 0 || r.MinSeconds <= 0 {
			t.Fatalf("%s: nonsense timing %+v", name, r)
		}
		if r.MinSeconds > r.AvgSeconds {
			t.Fatalf("%s: min %v > avg %v", name, r.MinSeconds, r.AvgSeconds)
		}
		if r.FormatBytes <= 0 {
			t.Fatalf("%s: no format footprint", name)
		}
		if r.Kernel != name {
			t.Fatalf("result kernel %q != %q", r.Kernel, name)
		}
	}
}

// TestRunSpMVAllKernelsVerified: SpMV is Run at K = 1. Every registry name
// runs it through its own kernel and verifies against the COO reference —
// bit for bit on the CPU, where every name is a lattice point.
func TestRunSpMVAllKernelsVerified(t *testing.T) {
	a := testCOO(21, 80, 80, 500)
	opts := gpuOptions(t)
	p := smallParams()
	p.K = 1
	for _, name := range Names() {
		k, err := New(name, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := Run(k, a, "test", p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Verified || (k.Mode() != GPU && r.MaxAbsDiff != 0) {
			t.Errorf("%s: verified=%v, max abs diff %g", name, r.Verified, r.MaxAbsDiff)
		}
		if r.K != 1 {
			t.Errorf("%s: spmv result must report k=1, got %d", name, r.K)
		}
		if r.MFLOPS <= 0 || r.FormatBytes <= 0 {
			t.Errorf("%s: nonsense result %+v", name, r)
		}
	}
}

func TestRunSpMVDeterministicResult(t *testing.T) {
	a := testCOO(23, 60, 60, 300)
	p := smallParams()
	p.K = 1
	var rs [2]Result
	for i := range rs {
		k, err := New("ell-omp", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rs[i], err = Run(k, a, "t", p); err != nil {
			t.Fatal(err)
		}
	}
	// Timing varies; the verified numerics and metadata must not.
	if rs[0].Kernel != rs[1].Kernel || rs[0].MaxAbsDiff != rs[1].MaxAbsDiff || rs[0].FormatBytes != rs[1].FormatBytes {
		t.Fatalf("results differ: %+v vs %+v", rs[0], rs[1])
	}
}

// TestRunFixedKRejectsUnsupportedK: the "-fixedk" kernels, which refused
// any k outside k % 8 == 0, are gone from the registry, and the kernel they
// specialised runs such a k itself.
func TestRunFixedKRejectsUnsupportedK(t *testing.T) {
	for _, name := range []string{"csr-serial-fixedk", "coo-omp-fixedk"} {
		if _, err := New(name, Options{}); !errors.Is(err, ErrUnknownKernel) {
			t.Errorf("%s: %v, want ErrUnknownKernel", name, err)
		}
	}
	a := testCOO(2, 20, 20, 60)
	k, err := New("csr-serial", Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams()
	p.K = 17
	if r, err := Run(k, a, "t", p); err != nil || !r.Verified {
		t.Fatalf("k=17: verified=%v, %v", r.Verified, err)
	}
}

func TestRunKZeroDefaults(t *testing.T) {
	a := testCOO(3, 20, 20, 60)
	k, _ := New("csr-serial", Options{})
	p := smallParams()
	p.K = 0
	r, err := Run(k, a, "t", p)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 128 {
		t.Fatalf("k=0 should default to 128, got %d", r.K)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	a := testCOO(4, 10, 10, 20)
	k, _ := New("coo-serial", Options{})
	for _, mutate := range []func(*Params){
		func(p *Params) { p.Reps = 0 },
		func(p *Params) { p.Threads = 0 },
		func(p *Params) { p.BlockSize = 0 },
		func(p *Params) { p.K = -1 },
		func(p *Params) { p.ThreadList = []int{4, 0} },
	} {
		p := smallParams()
		mutate(&p)
		if _, err := Run(k, a, "t", p); err == nil {
			t.Errorf("bad params %+v accepted", p)
		}
	}
}

func TestRunRejectsInvalidMatrix(t *testing.T) {
	a := testCOO(5, 10, 10, 20)
	a.RowIdx[0] = 99 // corrupt
	k, _ := New("coo-serial", Options{})
	if _, err := Run(k, a, "t", smallParams()); err == nil {
		t.Fatal("invalid matrix accepted")
	}
}

func TestCalculateBeforePrepare(t *testing.T) {
	for _, name := range []string{"coo-serial", "csr-serial", "ell-serial", "bcsr-serial", "bell-serial", "sellcs-serial"} {
		k, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := matrix.NewDense[float64](4, 8)
		c := matrix.NewDense[float64](4, 8)
		p := smallParams()
		p.K = 8
		if err := k.Calculate(b, c, p); !errors.Is(err, ErrNotPrepared) {
			t.Errorf("%s: Calculate before Prepare: %v", name, err)
		}
	}
}

func TestVerificationCatchesBrokenKernel(t *testing.T) {
	a := testCOO(6, 30, 30, 150)
	k := &brokenKernel{}
	_, err := Run(k, a, "t", smallParams())
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("broken kernel not caught: %v", err)
	}
}

// brokenKernel returns a wrong (all-zero with one poisoned cell) result.
type brokenKernel struct{ a *matrix.COO[float64] }

func (b *brokenKernel) Name() string     { return "broken" }
func (b *brokenKernel) Format() string   { return "broken" }
func (b *brokenKernel) Mode() Mode       { return Serial }
func (b *brokenKernel) Transposed() bool { return false }
func (b *brokenKernel) Bytes() int       { return 1 }
func (b *brokenKernel) Prepare(a *matrix.COO[float64], p Params) error {
	b.a = a
	return nil
}
func (b *brokenKernel) Calculate(_, c *matrix.Dense[float64], p Params) error {
	c.Zero()
	c.Set(0, 0, 12345)
	return nil
}

func TestBestThreadsPicksWinner(t *testing.T) {
	a := testCOO(7, 4000, 4000, 40000)
	k, _ := New("csr-omp", Options{})
	p := smallParams()
	p.K = 32
	p.ThreadList = []int{1, 4}
	p.Verify = false
	best, all, err := BestThreads(k, a, "t", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("got %d results", len(all))
	}
	for i, r := range all {
		if r.Threads != p.ThreadList[i] {
			t.Fatalf("result %d has threads %d", i, r.Threads)
		}
	}
	if all[best].MFLOPS < all[1-best].MFLOPS {
		t.Fatal("best is not the max")
	}
}

func TestBestThreadsRequiresList(t *testing.T) {
	a := testCOO(8, 10, 10, 20)
	k, _ := New("csr-omp", Options{})
	if _, _, err := BestThreads(k, a, "t", smallParams()); err == nil {
		t.Fatal("empty thread list accepted")
	}
}

func TestModeStrings(t *testing.T) {
	if Serial.String() != "serial" || Parallel.String() != "omp" || GPU.String() != "gpu" {
		t.Fatal("mode strings")
	}
}

func TestKernelNamesEncodeVariants(t *testing.T) {
	if kernelName("csr", Parallel, kernels.InnerTransB) != "csr-omp-t" {
		t.Fatal("transposed name")
	}
	if kernelName("ell", Serial, kernels.InnerTiled) != "ell-serial" {
		t.Fatal("tiled name")
	}
	for _, n := range Names() {
		if strings.ContainsAny(n, " /") {
			t.Fatalf("kernel name %q has unsafe characters", n)
		}
	}
}

func TestGPUKernelUsesModelTime(t *testing.T) {
	a := testCOO(9, 50, 50, 300)
	opts := gpuOptions(t)
	k, err := New("csr-gpu", opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(k, a, "t", smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// The modelled time is deterministic, so avg == min exactly.
	if r.AvgSeconds != r.MinSeconds {
		t.Fatalf("model time should be deterministic: avg %v min %v", r.AvgSeconds, r.MinSeconds)
	}
}

func TestFormatsList(t *testing.T) {
	if len(Formats()) != 6 {
		t.Fatalf("formats: %v", Formats())
	}
}

func TestRunScheduledPooledVerified(t *testing.T) {
	// The scheduling layer must be invisible to correctness: every CPU-
	// parallel kernel run with the balanced schedule on a persistent pool
	// still verifies against the COO reference.
	a := testCOO(3, 80, 60, 500)
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, name := range []string{"coo-omp", "csr-omp", "ell-omp", "bcsr-omp", "bell-omp", "sellcs-omp"} {
		for _, p := range []Params{
			func() Params { p := smallParams(); p.Schedule = kernels.ScheduleBalanced; return p }(),
			func() Params { p := smallParams(); p.Pool = pool; return p }(),
			func() Params {
				p := smallParams()
				p.Schedule = kernels.ScheduleBalanced
				p.Pool = pool
				return p
			}(),
		} {
			k, err := New(name, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r, err := Run(k, a, "test", p)
			if err != nil {
				t.Fatalf("%s (sched=%v pool=%v): %v", name, p.Schedule, p.Pool != nil, err)
			}
			if !r.Verified {
				t.Fatalf("%s (sched=%v pool=%v): not verified", name, p.Schedule, p.Pool != nil)
			}
		}
	}
}
