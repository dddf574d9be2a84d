package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

func testDevice(t *testing.T) *gpusim.Device {
	t.Helper()
	dev, err := gpusim.NewDevice(gpusim.TestDevice(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// diagMatrix builds an n×n matrix with a unit diagonal.
func diagMatrix(n int) *matrix.COO[float64] {
	m := matrix.NewCOO[float64](n, n, n)
	for i := 0; i < n; i++ {
		m.Append(int32(i), int32(i), 1)
	}
	return m
}

// skewMatrix builds a matrix with one long row — the ELLPACK blow-up case:
// row 0 holds `long` entries, every other row just its diagonal.
func skewMatrix(rows, long int) *matrix.COO[float64] {
	m := matrix.NewCOO[float64](rows, rows, rows+long)
	for j := 0; j < long; j++ {
		m.Append(0, int32(j%rows), 1)
	}
	for i := 1; i < rows; i++ {
		m.Append(int32(i), int32(i), 1)
	}
	m.SortRowMajor()
	m.Dedup()
	return m
}

func load(m *matrix.COO[float64]) func() (*matrix.COO[float64], error) {
	return func() (*matrix.COO[float64], error) { return m, nil }
}

func testParams() core.Params {
	return core.Params{Reps: 1, Threads: 1, BlockSize: 4, K: 8, Verify: true, Seed: 1}
}

func fastBackoff() Backoff {
	return Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Factor: 2, Jitter: 0.2}
}

// TestCampaignRecoversFromEveryFaultClass is the acceptance scenario: a
// campaign with one panicking kernel, one transient error that succeeds on
// retry, one over-budget ELL matrix, and one timeout completes end-to-end
// with each recovery path taken.
func TestCampaignRecoversFromEveryFaultClass(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	inject := NewInjector(7,
		Fault{Run: "csr-serial|panicky", Point: PointCalculate, Kind: FaultPanic},
		Fault{Run: "csr-serial|flaky", Point: PointPrepare, Kind: FaultTransient, Count: 1},
		Fault{Run: "coo-serial|slow", Point: PointCalculate, Kind: FaultSlow, Count: 10, Delay: 2 * time.Second},
	)
	cfg := Config{
		Timeout:   100 * time.Millisecond,
		Retries:   2,
		Backoff:   fastBackoff(),
		MemBudget: 64 << 10,
		Journal:   journal,
		Seed:      7,
		Injector:  inject,
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	plan := []Spec{
		{Kernel: "csr-serial", Matrix: "panicky", Load: load(diagMatrix(64)), Params: testParams()},
		{Kernel: "csr-serial", Matrix: "flaky", Load: load(diagMatrix(64)), Params: testParams()},
		{Kernel: "ell-serial", Matrix: "skewed", Load: load(skewMatrix(400, 300)), Params: testParams()},
		{Kernel: "coo-serial", Matrix: "slow", Load: load(diagMatrix(64)), Params: testParams()},
	}
	outs, err := h.Execute(context.Background(), plan)
	if err != nil {
		t.Fatalf("campaign aborted: %v", err)
	}
	if len(outs) != len(plan) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(plan))
	}

	// 1: the panic is contained as a typed failure with a stack.
	panicked := outs[0]
	if panicked.Status != StatusFailed {
		t.Fatalf("panicky run status %q", panicked.Status)
	}
	var re *RunError
	if !errors.As(panicked.Err, &re) || re.Class != ClassPanic {
		t.Fatalf("panicky run error %v", panicked.Err)
	}
	if !errors.Is(panicked.Err, ErrPanic) {
		t.Fatal("panic error does not match ErrPanic")
	}
	if len(re.Stack) == 0 {
		t.Fatal("panic error has no captured stack")
	}

	// 2: the transient failure succeeds on the second attempt.
	flaky := outs[1]
	if flaky.Status != StatusOK {
		t.Fatalf("flaky run status %q (%v)", flaky.Status, flaky.Err)
	}
	if flaky.Attempts != 2 {
		t.Fatalf("flaky run took %d attempts, want 2", flaky.Attempts)
	}

	// 3: the over-budget ELL run degrades to CSR and still completes.
	skewed := outs[2]
	if skewed.Status != StatusDegraded {
		t.Fatalf("skewed run status %q (%v)", skewed.Status, skewed.Err)
	}
	if skewed.RanKernel != "csr-serial" || skewed.Result.Kernel != "csr-serial" {
		t.Fatalf("skewed run degraded to %q", skewed.RanKernel)
	}
	if !skewed.Result.Verified {
		t.Fatal("degraded run skipped verification")
	}

	// 4: the slow run is recorded as a typed timeout.
	slow := outs[3]
	if slow.Status != StatusFailed || !errors.Is(slow.Err, ErrTimeout) {
		t.Fatalf("slow run status %q err %v", slow.Status, slow.Err)
	}

	want := []metrics.CounterValue{
		{Name: "ok", Value: 1}, {Name: "retried", Value: 1}, {Name: "degraded", Value: 1},
		{Name: "skipped", Value: 0}, {Name: "failed", Value: 2},
	}
	if got := h.Counters(); !slices.Equal(got, want) {
		t.Errorf("counters = %v, want %v", got, want)
	}

	// The journal holds one terminal record per run.
	recs, err := ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("journal has %d records, want 4", len(recs))
	}
	if recs[2].Substituted != "csr-serial" {
		t.Fatalf("journal did not record the substitution: %+v", recs[2])
	}
}

// TestCampaignResume kills a campaign midway and verifies the rerun with
// Resume replays the completed runs from the journal without re-executing
// any of them.
func TestCampaignResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	plan := []Spec{
		{Kernel: "csr-serial", Matrix: "a", Load: load(diagMatrix(32)), Params: testParams()},
		{Kernel: "coo-serial", Matrix: "b", Load: load(diagMatrix(48)), Params: testParams()},
		{Kernel: "ell-serial", Matrix: "c", Load: load(diagMatrix(64)), Params: testParams()},
	}

	// First campaign is interrupted after two runs.
	h1, err := New(Config{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Execute(context.Background(), plan[:2]); err != nil {
		t.Fatal(err)
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}

	// The rerun replays the two journaled runs and executes only the third.
	// An injector armed to panic on the replayed runs proves they are never
	// re-executed.
	h2, err := New(Config{
		Journal: journal,
		Resume:  true,
		Injector: NewInjector(1,
			Fault{Run: "csr-serial|a", Point: PointPrepare, Kind: FaultPanic, Count: 99},
			Fault{Run: "coo-serial|b", Point: PointPrepare, Kind: FaultPanic, Count: 99},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	outs, err := h2.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Status != StatusSkipped || outs[1].Status != StatusSkipped {
		t.Fatalf("resumed runs were not skipped: %q %q", outs[0].Status, outs[1].Status)
	}
	if outs[0].Result.MFLOPS <= 0 {
		t.Fatal("replayed run lost its journaled result")
	}
	if outs[2].Status != StatusOK {
		t.Fatalf("fresh run status %q (%v)", outs[2].Status, outs[2].Err)
	}
	if got := h2.skipped.Load(); got != 2 {
		t.Fatalf("skipped counter %d, want 2", got)
	}
}

// TestRetriesExhausted: a fault that stays transient longer than the retry
// budget ends as a failed run classified transient.
func TestRetriesExhausted(t *testing.T) {
	h, err := New(Config{
		Retries: 2,
		Backoff: fastBackoff(),
		Injector: NewInjector(1,
			Fault{Point: PointPrepare, Kind: FaultTransient, Count: 99}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	out := h.RunOne(context.Background(), Spec{
		Kernel: "csr-serial", Matrix: "m", Load: load(diagMatrix(16)), Params: testParams()})
	if out.Status != StatusFailed || out.Attempts != 3 {
		t.Fatalf("status %q attempts %d", out.Status, out.Attempts)
	}
	if !errors.Is(out.Err, ErrTransient) {
		t.Fatalf("error %v not transient", out.Err)
	}
}

// TestModelKernelsNeverRetry: a GPU (ModelTimed) kernel with a transient
// fault fails on the first attempt — simulated kernels are deterministic,
// so retrying would only burn host time.
func TestModelKernelsNeverRetry(t *testing.T) {
	dev := testDevice(t)
	h, err := New(Config{
		Retries: 3,
		Backoff: fastBackoff(),
		Injector: NewInjector(1,
			Fault{Point: PointCalculate, Kind: FaultTransient, Count: 99}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	p := testParams()
	p.Verify = false
	out := h.RunOne(context.Background(), Spec{
		Kernel: "csr-gpu", Matrix: "m", Load: load(diagMatrix(32)),
		Opts: core.Options{Device: dev}, Params: p})
	if out.Status != StatusFailed {
		t.Fatalf("status %q", out.Status)
	}
	if out.Attempts != 1 {
		t.Fatalf("model kernel was retried: %d attempts", out.Attempts)
	}
	if got := h.retried.Load(); got != 0 {
		t.Fatalf("retried counter %d, want 0", got)
	}
}

// TestVerifyFailureClassified: a kernel whose output disagrees with the COO
// reference fails with ClassVerifyFailed and is not retried.
func TestVerifyFailureClassified(t *testing.T) {
	if Classify(core.ErrVerify) != ClassVerifyFailed {
		t.Fatal("core.ErrVerify not classified as verify-failed")
	}
	if ClassVerifyFailed.Retryable() {
		t.Fatal("verify failures must not be retryable")
	}
}

// TestOverBudgetNoFallback: when even COO exceeds the budget, the run fails
// with ErrOverBudget instead of being attempted.
func TestOverBudgetNoFallback(t *testing.T) {
	h, err := New(Config{MemBudget: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	out := h.RunOne(context.Background(), Spec{
		Kernel: "coo-serial", Matrix: "m", Load: load(diagMatrix(64)), Params: testParams()})
	if out.Status != StatusFailed || !errors.Is(out.Err, ErrOverBudget) {
		t.Fatalf("status %q err %v", out.Status, out.Err)
	}
}

// TestRunnerAppliesContainment: the studies-facing Runner turns a panic
// into a typed error instead of crashing the caller.
func TestRunnerAppliesContainment(t *testing.T) {
	h, err := New(Config{
		Injector: NewInjector(1, Fault{Point: PointCalculate, Kind: FaultPanic})})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	run := h.Runner()
	_, err = run("csr-serial", core.Options{}, diagMatrix(32), "m", testParams())
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("runner error %v, want panic class", err)
	}
	// A second call without the (consumed) fault succeeds.
	res, err := run("csr-serial", core.Options{}, diagMatrix(32), "m", testParams())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("runner result not verified")
	}
}

// TestInjectorDeterministic: the same seed and fault list fire identically.
func TestInjectorDeterministic(t *testing.T) {
	in := NewInjector(42, Fault{Run: "x", Point: PointPrepare, Kind: FaultTransient, Count: 2})
	if err := in.fire("kernel|x|rest", PointPrepare); !errors.Is(err, ErrTransient) {
		t.Fatal("first firing missed")
	}
	if err := in.fire("kernel|x|rest", PointPrepare); !errors.Is(err, ErrTransient) {
		t.Fatal("second firing missed")
	}
	if err := in.fire("kernel|x|rest", PointPrepare); err != nil {
		t.Fatal("fault fired past its count")
	}
	if err := in.fire("other|run", PointPrepare); err != nil {
		t.Fatal("fault fired for a non-matching run")
	}
}

func TestJournalTornLastLineIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{ID: "a", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"b","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("records %+v", recs)
	}
	// A malformed line in the middle, however, is an error.
	f, _ = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("\n{\"id\":\"c\",\"status\":\"ok\"}\n")
	f.Close()
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("malformed middle line accepted")
	} else if !strings.Contains(err.Error(), "line") {
		t.Fatalf("error %v does not locate the line", err)
	}
}
