package tune

import (
	"errors"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// The deterministic test rig: execution, time and randomness are all
// injected, so every test below is exact — no wall-clock sleeps, no
// tolerance bands on sample counts.

const (
	testIncumbent = "csr/opts-pool"
	testFast      = "sellcs/opts-balanced-pool"
)

func testCOO(t testing.TB) *matrix.COO[float64] {
	t.Helper()
	m, err := gen.UniformRandom[float64](16, 16, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSortedRowMajor() {
		m.SortRowMajor()
	}
	m.Dedup()
	return m
}

// fillResult writes the canonical deterministic result every scripted
// variant produces (bitwise-identical across variants, like the real ones).
func fillResult(out *matrix.Dense[float64]) {
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = float64(i + 2*j + 1)
		}
	}
}

// scriptedExec returns an ExecFunc with per-variant scripted durations.
// wrongVariant (if non-empty) produces bitwise-divergent output — the
// fast-but-wrong challenger the verification gate must catch.
func scriptedExec(dur func(variant string) time.Duration, wrongVariant string) ExecFunc {
	return func(variant string, in *kernels.VariantInput, out *matrix.Dense[float64]) (time.Duration, error) {
		fillResult(out)
		if variant == wrongVariant {
			out.Row(0)[0]++
		}
		return dur(variant), nil
	}
}

// promoRecorder is a thread-safe Promote/Persist capture.
type promoRecorder struct {
	mu       sync.Mutex
	promos   []Promotion
	profiles []*Profile
	version  int64
}

func (p *promoRecorder) promote(id string, pr Promotion) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.promos = append(p.promos, pr)
	p.version++
	return p.version, nil
}

func (p *promoRecorder) persist(id string, prof *Profile) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.profiles = append(p.profiles, prof)
	return nil
}

func (p *promoRecorder) snapshot() []Promotion {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Promotion(nil), p.promos...)
}

func testConfig(rec *promoRecorder, dur func(string) time.Duration, wrong string) Config {
	return Config{
		Duty:       0.5,
		MinSamples: 2,
		Margin:     0.10,
		Window:     8,
		QueueDepth: 64,
		Threads:    1,
		Promote:    rec.promote,
		Persist:    rec.persist,
		Exec:       scriptedExec(dur, wrong),
		Now:        func() time.Time { return time.Unix(1000, 0) },
		Seed:       1,
	}
}

// drive feeds n offers through the tuner, flushing after each so trials run
// deterministically in sequence, and tracks the moving incumbent the way
// the serving layer does (offers carry the executing plan).
func drive(t testing.TB, tu *Tuner, id string, coo *matrix.COO[float64], n, k int) {
	t.Helper()
	b := matrix.NewDenseRand[float64](coo.Cols, k, 7)
	served := matrix.NewDense[float64](coo.Rows, k)
	fillResult(served)
	for i := 0; i < n; i++ {
		prof := tu.Profile(id)
		tu.Offer(id, prof.Incumbent, prof.PlanVersion, b, served, k)
		tu.Flush()
	}
}

// TestPromotionHysteresis pins the promotion rule end to end: a challenger
// measured 2x faster is promoted exactly once (after both arms hold
// MinSamples), the plan version advances through the callback, the profile
// is persisted — and the displaced incumbent never flaps back.
func TestPromotionHysteresis(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	dur := func(v string) time.Duration {
		switch v {
		case testFast:
			return 50 * time.Microsecond
		case testIncumbent:
			return 100 * time.Microsecond
		}
		return 200 * time.Microsecond
	}
	tu := New(testConfig(rec, dur, ""))
	defer tu.Close()
	tu.Track("m1", coo, 4, advisor.FeatureSummary{Density: 0.2}, testIncumbent, 1)

	drive(t, tu, "m1", coo, 200, 3)

	promos := rec.snapshot()
	if len(promos) != 1 {
		t.Fatalf("promotions = %d, want exactly 1 (no flapping)", len(promos))
	}
	pr := promos[0]
	if pr.From != testIncumbent || pr.To != testFast {
		t.Fatalf("promoted %s -> %s, want %s -> %s", pr.From, pr.To, testIncumbent, testFast)
	}
	if pr.FromP50Micros != 100 || pr.ToP50Micros != 50 {
		t.Fatalf("promotion p50s = %v -> %v, want 100 -> 50", pr.FromP50Micros, pr.ToP50Micros)
	}
	if pr.UnixNanos != time.Unix(1000, 0).UnixNano() {
		t.Fatalf("promotion timestamp %d did not come from the injected clock", pr.UnixNanos)
	}
	prof := tu.Profile("m1")
	if prof.Incumbent != testFast || prof.PlanVersion != 2 {
		t.Fatalf("post-promotion profile: incumbent %s v%d, want %s v2", prof.Incumbent, prof.PlanVersion, testFast)
	}
	if len(prof.History) != 1 || prof.History[0] != pr {
		t.Fatalf("history %+v does not record the promotion", prof.History)
	}
	if len(rec.profiles) != 1 {
		t.Fatalf("persist callbacks = %d, want 1 (one per promotion)", len(rec.profiles))
	}
	// The fastest arm must rank first in the profile.
	if len(prof.Arms) == 0 || prof.Arms[0].Variant != testFast {
		t.Fatalf("profile arms not ranked fastest-first: %+v", prof.Arms)
	}
}

// TestWithinMarginNoPromotion pins the hysteresis: a challenger 5% faster
// with a 10% margin never displaces the incumbent, and the matrix settles.
func TestWithinMarginNoPromotion(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	dur := func(v string) time.Duration {
		switch v {
		case testFast:
			return 95 * time.Microsecond
		case testIncumbent:
			return 100 * time.Microsecond
		}
		return 200 * time.Microsecond
	}
	tu := New(testConfig(rec, dur, ""))
	defer tu.Close()
	tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 1)

	drive(t, tu, "m1", coo, 200, 3)

	if promos := rec.snapshot(); len(promos) != 0 {
		t.Fatalf("within-margin challenger was promoted: %+v", promos)
	}
	st := tu.Stats()
	if len(st.Matrices) != 1 || !st.Matrices[0].Settled {
		t.Fatalf("fully-explored within-margin matrix did not settle: %+v", st.Matrices)
	}
	if st.Matrices[0].Incumbent != testIncumbent {
		t.Fatalf("incumbent moved to %s without a promotion", st.Matrices[0].Incumbent)
	}
}

// TestDutyCycleBounds pins the deterministic duty cycle: exactly
// floor(n*duty) of n offers are sampled, and a settled matrix's duty drops
// by settleFactor.
func TestDutyCycleBounds(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	dur := func(v string) time.Duration { return 100 * time.Microsecond }

	cfg := testConfig(rec, dur, "")
	cfg.Duty = 0.25
	cfg.QueueDepth = 4096
	tu := New(cfg)
	defer tu.Close()
	tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 1)

	b := matrix.NewDenseRand[float64](coo.Cols, 3, 7)
	served := matrix.NewDense[float64](coo.Rows, 3)
	fillResult(served)
	const n = 100
	taken := 0
	for i := 0; i < n; i++ {
		if tu.Offer("m1", testIncumbent, 1, b, served, 3) {
			taken++
		}
	}
	if want := int(float64(n) * 0.25); taken != want {
		t.Fatalf("sampled %d of %d offers at duty 0.25, want exactly %d", taken, n, want)
	}
	st := tu.Stats()
	if st.Matrices[0].Offers != n || st.Matrices[0].Sampled != uint64(taken) {
		t.Fatalf("per-matrix counters %+v disagree with the drive", st.Matrices[0])
	}
}

// TestSettledDutyBackoff runs a matrix to settlement (all arms within the
// margin) and pins that the effective duty drops by settleFactor.
func TestSettledDutyBackoff(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	// Every arm identical: nothing to promote, settles after exploration.
	dur := func(v string) time.Duration { return 100 * time.Microsecond }
	tu := New(testConfig(rec, dur, ""))
	defer tu.Close()
	tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 1)

	drive(t, tu, "m1", coo, 200, 3)
	st := tu.Stats()
	if !st.Matrices[0].Settled {
		t.Fatal("uniform arm space did not settle after full exploration")
	}
	offers0, sampled0 := st.Matrices[0].Offers, st.Matrices[0].Sampled

	// Post-settle: duty is 0.5/settleFactor = 0.05 → integer-crossing count.
	b := matrix.NewDenseRand[float64](coo.Cols, 3, 7)
	served := matrix.NewDense[float64](coo.Rows, 3)
	fillResult(served)
	const extra = 200
	for i := 0; i < extra; i++ {
		tu.Offer("m1", testIncumbent, 1, b, served, 3)
	}
	tu.Flush()
	st = tu.Stats()
	gotDelta := st.Matrices[0].Sampled - sampled0
	settledDuty := 0.5 / settleFactor
	wantDelta := uint64(float64(offers0+extra)*settledDuty) - uint64(float64(offers0)*settledDuty)
	if gotDelta != wantDelta {
		t.Fatalf("settled matrix sampled %d of %d offers, want %d (duty/%d backoff)",
			gotDelta, extra, wantDelta, settleFactor)
	}
	if gotDelta >= extra/4 {
		t.Fatalf("settled duty did not back off: %d samples from %d offers", gotDelta, extra)
	}
}

// TestWrongVariantDisqualified pins the verification gate: a challenger
// that is measured fastest but does not bitwise-reproduce the incumbent's
// result is disqualified permanently and never promoted.
func TestWrongVariantDisqualified(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	const wrong = "ell/opts-pool"
	dur := func(v string) time.Duration {
		if v == wrong {
			return 10 * time.Microsecond // fastest — and wrong
		}
		if v == testIncumbent {
			return 100 * time.Microsecond
		}
		return 200 * time.Microsecond
	}
	tu := New(testConfig(rec, dur, wrong))
	defer tu.Close()
	tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 1)

	drive(t, tu, "m1", coo, 200, 3)

	for _, pr := range rec.snapshot() {
		if pr.To == wrong {
			t.Fatalf("bitwise-divergent variant %s was promoted", wrong)
		}
	}
	prof := tu.Profile("m1")
	var found bool
	for _, a := range prof.Arms {
		if a.Variant == wrong {
			found = true
			if !a.Disqualified {
				t.Fatalf("wrong variant not disqualified: %+v", a)
			}
			if a.Samples != 0 {
				t.Fatalf("wrong variant's timing was recorded (%d samples) — a mismatched run must never be timed", a.Samples)
			}
		}
	}
	if !found {
		t.Fatal("disqualified arm missing from the profile")
	}
	if st := tu.Stats(); st.Rejects < 1 {
		t.Fatalf("disqualification not counted: %+v", st)
	}
}

// TestIncumbentMismatchRejected pins the served-result gate: when the
// incumbent's shadow re-run does not reproduce what the server actually
// returned, the whole trial is rejected and neither timing is recorded.
func TestIncumbentMismatchRejected(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	dur := func(v string) time.Duration { return 100 * time.Microsecond }
	tu := New(testConfig(rec, dur, ""))
	defer tu.Close()
	tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 1)

	b := matrix.NewDenseRand[float64](coo.Cols, 3, 7)
	served := matrix.NewDense[float64](coo.Rows, 3)
	fillResult(served)
	served.Row(0)[0]++ // the server "returned" something the incumbent won't reproduce
	for i := 0; i < 2; i++ {
		tu.Offer("m1", testIncumbent, 1, b, served, 3)
	}
	tu.Flush()
	st := tu.Stats()
	if st.Trials != 0 {
		t.Fatalf("trials = %d, want 0 — a mismatched served result must not be timed", st.Trials)
	}
	if st.Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", st.Rejects)
	}
}

// TestStridedServedViewVerifies: the server hands Offer a coalesced member's
// result as a column view of its dispatch's wide C. Verification walks the
// view's rows, so the neighbours' columns neither fail a good sample nor hide
// a bad one.
func TestStridedServedViewVerifies(t *testing.T) {
	coo := testCOO(t)
	dur := func(v string) time.Duration { return 100 * time.Microsecond }
	for _, tc := range []struct {
		name            string
		corrupt         func(wide, served *matrix.Dense[float64])
		trials, rejects int64
	}{
		{"clean view", func(wide, served *matrix.Dense[float64]) {}, 1, 0},
		{"garbage beside the view", func(wide, served *matrix.Dense[float64]) { wide.Row(0)[1]++; wide.Row(3)[5]++ }, 1, 0},
		{"wrong bit inside the view", func(wide, served *matrix.Dense[float64]) { served.Row(3)[2]++ }, 0, 1},
	} {
		tu := New(testConfig(&promoRecorder{version: 1}, dur, ""))
		tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 1)
		b := matrix.NewDenseRand[float64](coo.Cols, 3, 7)
		wide := matrix.NewDenseRand[float64](coo.Rows, 7, 9)
		served, err := wide.View(0, 2, coo.Rows, 3)
		if err != nil {
			t.Fatal(err)
		}
		fillResult(served)
		tc.corrupt(wide, served)
		for i := 0; i < 2; i++ { // duty 0.5: the second offer becomes a trial
			tu.Offer("m1", testIncumbent, 1, b, served, 3)
		}
		tu.Flush()
		if st := tu.Stats(); st.Trials != tc.trials || st.Rejects != tc.rejects {
			t.Fatalf("%s: trials=%d rejects=%d, want %d/%d", tc.name, st.Trials, st.Rejects, tc.trials, tc.rejects)
		}
		tu.Close()
	}
}

// TestStaleSampleDropped pins the plan-version gate: a queued sample from
// an older plan version is discarded, not trialed.
func TestStaleSampleDropped(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	dur := func(v string) time.Duration { return 100 * time.Microsecond }
	tu := New(testConfig(rec, dur, ""))
	defer tu.Close()
	tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 7)

	b := matrix.NewDenseRand[float64](coo.Cols, 3, 7)
	served := matrix.NewDense[float64](coo.Rows, 3)
	fillResult(served)
	for i := 0; i < 2; i++ {
		tu.Offer("m1", testIncumbent, 3, b, served, 3) // plan v3, tuner holds v7
	}
	tu.Flush()
	st := tu.Stats()
	if st.Trials != 0 || st.Stale != 1 {
		t.Fatalf("stale sample: trials=%d stale=%d, want 0/1", st.Trials, st.Stale)
	}
}

// TestProfileRoundTrip pins warm restart: a learned profile restored into a
// fresh tuner reproduces incumbent, plan version, per-arm windows and the
// promotion history — and a feature-vector mismatch falls back to cold.
func TestProfileRoundTrip(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	feat := advisor.FeatureSummary{Density: 0.2, Gini: 0.4}
	dur := func(v string) time.Duration {
		switch v {
		case testFast:
			return 50 * time.Microsecond
		case testIncumbent:
			return 100 * time.Microsecond
		}
		return 200 * time.Microsecond
	}
	tu := New(testConfig(rec, dur, ""))
	tu.Track("m1", coo, 4, feat, testIncumbent, 1)
	drive(t, tu, "m1", coo, 200, 3)
	prof := tu.Profile("m1")
	tu.Close()
	if prof.Incumbent != testFast {
		t.Fatalf("scenario did not converge: incumbent %s", prof.Incumbent)
	}

	// Warm restore: the recovered tuner starts where the crashed one was.
	tu2 := New(testConfig(&promoRecorder{version: prof.PlanVersion}, dur, ""))
	defer tu2.Close()
	if err := tu2.Restore("m1", coo, 4, feat, prof.Incumbent, prof.PlanVersion, prof); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := tu2.Profile("m1")
	if got.Incumbent != prof.Incumbent || got.PlanVersion != prof.PlanVersion ||
		got.Trials != prof.Trials {
		t.Fatalf("restored profile %+v != saved %+v", got, prof)
	}
	if len(got.History) != len(prof.History) || got.History[0] != prof.History[0] {
		t.Fatalf("promotion history lost in restore: %+v vs %+v", got.History, prof.History)
	}
	if len(got.Arms) != len(prof.Arms) {
		t.Fatalf("restored %d arms, saved %d", len(got.Arms), len(prof.Arms))
	}
	for i := range got.Arms {
		if got.Arms[i].Variant != prof.Arms[i].Variant || got.Arms[i].Samples != prof.Arms[i].Samples ||
			got.Arms[i].P50Micros != prof.Arms[i].P50Micros {
			t.Fatalf("arm %d changed in restore: %+v vs %+v", i, got.Arms[i], prof.Arms[i])
		}
	}

	// Feature mismatch: profile discarded, matrix tracked cold.
	tu3 := New(testConfig(&promoRecorder{version: 1}, dur, ""))
	defer tu3.Close()
	if err := tu3.Restore("m1", coo, 4, advisor.FeatureSummary{Density: 0.9}, testIncumbent, 1, prof); err == nil {
		t.Fatal("feature-mismatched profile restored without an error")
	}
	cold := tu3.Profile("m1")
	if cold.Incumbent != testIncumbent || len(cold.Arms) != 0 || len(cold.History) != 0 {
		t.Fatalf("mismatched profile left state behind: %+v", cold)
	}
}

// TestRestoreLegacyNames: a profile written while parallel arms also ran on
// fresh goroutines per call names those arms; Restore maps each name to the
// pooled arm that now runs it, incumbent included, and where the profile
// holds both spellings of one arm the pooled entry wins.
func TestRestoreLegacyNames(t *testing.T) {
	coo := testCOO(t)
	feat := advisor.FeatureSummary{Density: 0.2}
	prof := &Profile{ID: "m1", Features: feat, Incumbent: "coo/opts-static", PlanVersion: 3, Arms: []ArmProfile{
		{Variant: "csr/opts-pool", Samples: 4, Window: []float64{2, 2, 2, 2}},
		{Variant: "csr/opts-static", Samples: 9, Window: []float64{1}},
		{Variant: "sellcs/opts-balanced", Samples: 5, Window: []float64{3, 3, 3, 3, 3}},
	}}
	tu := New(testConfig(&promoRecorder{version: 3}, func(string) time.Duration { return time.Millisecond }, ""))
	defer tu.Close()
	if err := tu.Restore("m1", coo, 4, feat, "coo/opts-static", 3, prof); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := tu.Profile("m1")
	if got.Incumbent != "coo/opts-pool" {
		t.Errorf("incumbent %q, want coo/opts-pool", got.Incumbent)
	}
	samples := map[string]int{}
	for _, a := range got.Arms {
		samples[a.Variant] = a.Samples
	}
	if want := map[string]int{"csr/opts-pool": 4, "sellcs/opts-balanced-pool": 5}; !maps.Equal(samples, want) {
		t.Errorf("restored arm samples %v, want %v", samples, want)
	}
}

// TestMeasuredRankings pins the advisor hand-off: Measured returns the
// non-disqualified arms fastest-first.
func TestMeasuredRankings(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	dur := func(v string) time.Duration {
		switch v {
		case testFast:
			return 50 * time.Microsecond
		case testIncumbent:
			return 100 * time.Microsecond
		}
		return 200 * time.Microsecond
	}
	tu := New(testConfig(rec, dur, ""))
	defer tu.Close()
	tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 1)
	drive(t, tu, "m1", coo, 120, 3)

	ms := tu.Measured("m1")
	if len(ms) < 3 {
		t.Fatalf("measured rankings too short: %+v", ms)
	}
	if ms[0].Variant != testFast || ms[0].P50Micros != 50 {
		t.Fatalf("fastest measured arm = %+v, want %s at 50us", ms[0], testFast)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].P50Micros < ms[i-1].P50Micros {
			t.Fatalf("measured rankings out of order at %d: %+v", i, ms)
		}
	}
}

// TestRejectsAgreeAcrossViews scripts one incumbent-mismatch rejection and
// one challenger error (a disqualification). /v1/tune's "rejects" is every
// discarded trial; Prometheus splits it into rejects and disqualifications.
// Both views read the same two counters — the JSON sums them once, in Stats
// — where the old twin counters had drifted (the JSON side counted both, the
// rejects series only the first).
func TestRejectsAgreeAcrossViews(t *testing.T) {
	coo := testCOO(t)
	rec := &promoRecorder{version: 1}
	cfg := testConfig(rec, func(string) time.Duration { return 100 * time.Microsecond }, "")
	clean := cfg.Exec
	// Once armed, the next challenger executed fails, for good. The test
	// arms it between Flushes, which order its write before the worker's read.
	var armed bool
	var failed string
	cfg.Exec = func(variant string, in *kernels.VariantInput, out *matrix.Dense[float64]) (time.Duration, error) {
		if armed && failed == "" && variant != testIncumbent {
			failed = variant
		}
		if variant == failed {
			return 0, errors.New("scripted challenger failure")
		}
		return clean(variant, in, out)
	}
	tu := New(cfg)
	defer tu.Close()
	reg := obs.NewRegistry()
	tu.ExportMetrics(reg)
	tu.Track("m1", coo, 4, advisor.FeatureSummary{}, testIncumbent, 1)

	b := matrix.NewDenseRand[float64](coo.Cols, 3, 7)
	served := matrix.NewDense[float64](coo.Rows, 3)
	fillResult(served)
	wrong := matrix.NewDense[float64](coo.Rows, 3)
	fillResult(wrong)
	wrong.Row(0)[0]++
	for i := 0; i < 2; i++ { // duty 0.5: the second offer becomes a trial
		tu.Offer("m1", testIncumbent, 1, b, wrong, 3) // incumbent re-run diverges: reject
	}
	tu.Flush()
	armed = true
	for i := 0; i < 2; i++ {
		tu.Offer("m1", testIncumbent, 1, b, served, 3) // challenger errors: disqualified
	}
	tu.Flush()

	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if got := tu.Stats().Rejects; got != 2 ||
		!strings.Contains(text.String(), "\nspmm_tune_rejects_total 1\n") ||
		!strings.Contains(text.String(), "\nspmm_tune_disqualified_total 1\n") {
		t.Fatalf("one rejection + one disqualification: JSON rejects = %d, want 2 = the sum of\n%s", got, text.String())
	}
}
