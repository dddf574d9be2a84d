// Package tune is the serving layer's online auto-tuner: a bandit-style
// control loop that treats the kernel lattice (kernels.Variants, filtered
// to the servable points) as an arm space and live traffic as the
// measurement budget.
//
// The paper's central finding is that no single sparse format wins across
// matrices; the advisor turns that into a per-matrix heuristic, and this
// package turns the heuristic into a prior. Per registered matrix the
// tuner starts from the advisor's pick (the incumbent), shadow-measures
// challenger variants on a small duty cycle of live multiplies — the
// challenger re-runs the exact request panel off the critical path, its
// output is verified bitwise against the served result before its timing
// is trusted — and promotes a challenger once its measured p50 beats the
// incumbent's by a hysteresis margin across a minimum sample count.
// Promotion installs a new serving-plan version through a callback
// (internal/serve re-prepares the format through its single-flight cache
// path) and the learned profile persists through the serve WAL so a
// restart starts warm.
//
// Everything is deterministic under test: execution and time are injected
// through Config.Exec/Config.Now, duty cycling is a counter (not a coin
// flip), and exploration is round-robin until every arm has its minimum
// samples.
package tune

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ExecFunc runs one variant against in, overwriting out, and reports how
// long the dispatch took. The default wraps kernels.RunVariant with a
// monotonic-clock measurement; tests inject scripted durations.
type ExecFunc func(variant string, in *kernels.VariantInput, out *matrix.Dense[float64]) (time.Duration, error)

// Config tunes a Tuner. The zero value of every field has a usable
// default filled in by New.
type Config struct {
	// Duty is the fraction of live multiplies that spawn a shadow trial
	// (default 0.05, clamped to [0, 0.5]). Once a matrix settles — every
	// arm measured, no challenger within the margin — its effective duty
	// drops by settleFactor so a converged matrix pays almost nothing.
	Duty float64
	// MinSamples is the per-arm sample count required before the arm can
	// be promoted over (or defend) the incumbency (default 8).
	MinSamples int
	// Margin is the promotion hysteresis: a challenger's p50 must beat
	// the incumbent's by this fraction (default 0.10). It is what keeps
	// two statistically-equal arms from flapping the plan.
	Margin float64
	// Window is the per-arm sliding sample window the p50 is computed
	// over (default 32) — old measurements age out, so a drifting host
	// re-converges.
	Window int
	// QueueDepth bounds the pending-trial buffer (default 16); when it is
	// full, offers are dropped (counted, never blocking the data path).
	QueueDepth int
	// Threads is the dispatch width trials run at — set it to the serving
	// thread count so measurements transfer.
	Threads int
	// Pool runs the trial dispatches; nil makes the tuner own one sized
	// to Threads, so trials never contend with live serving dispatches
	// for pool slots.
	Pool *parallel.Pool
	// Promote installs a newly-promoted variant as the matrix's serving
	// plan and returns the new plan version. Required for promotions to
	// take effect; nil leaves the tuner observe-only.
	Promote func(id string, pr Promotion) (int64, error)
	// Persist durably saves the matrix's learned profile (called after
	// every promotion); nil disables persistence.
	Persist func(id string, p *Profile) error
	// Log receives tuner lifecycle notes; nil discards them.
	Log *slog.Logger
	// Seed drives the (rarely used) post-settle exploration choice.
	Seed int64
	// Exec overrides trial execution — the test seam for deterministic
	// timings and scripted wrong results.
	Exec ExecFunc
	// Now overrides the promotion-history clock (tests).
	Now func() time.Time
}

// settleFactor divides the duty cycle once a matrix has converged.
const settleFactor = 10

// Tuner is the auto-tuner engine: one background worker draining a
// bounded trial queue, per-matrix arm statistics, and the promotion loop.
type Tuner struct {
	cfg     Config
	pool    *parallel.Pool
	ownPool bool
	rng     *rand.Rand // worker goroutine only

	mu     sync.Mutex
	states map[string]*state
	closed bool

	queue chan any // *sample | *flushReq
	done  chan struct{}

	// Metrics: each fact is one field, incremented at one site; Stats and
	// ExportMetrics (obs.go) both read it.
	trials       obs.Counter
	promotions   obs.Counter
	rejects      obs.Counter // trials whose incumbent re-run diverged
	disqualified obs.Counter // arms removed for good
	dropped      obs.Counter
	stale        obs.Counter
	trialSeconds obs.Histogram
	// regret is computed per trial and stored nowhere else.
	regret obs.Gauge
}

// sample is one captured multiply: the request panel and the bitwise
// ground truth the server actually returned for it.
type sample struct {
	id          string
	variant     string // the arm that served it
	planVersion int64
	b           *matrix.Dense[float64]
	served      *matrix.Dense[float64]
	k           int
}

type flushReq struct{ done chan struct{} }

// arm is one variant's measurement state for one matrix.
type arm struct {
	name string
	v    kernels.Variant
	// window holds the most recent sample durations in microseconds,
	// oldest first, capped at Config.Window.
	window []float64
	total  int // lifetime samples
	// disq marks an arm that failed bitwise verification or whose format
	// could not be prepared — never sampled or promoted again.
	disq bool
}

func (a *arm) p50() float64 {
	if len(a.window) == 0 {
		return 0
	}
	s := append([]float64(nil), a.window...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func (a *arm) push(micros float64, cap int) {
	a.window = append(a.window, micros)
	if len(a.window) > cap {
		a.window = a.window[len(a.window)-cap:]
	}
	a.total++
}

// state is one matrix's tuning state. The lab fields (in, labErr) are
// touched only by the worker goroutine; everything else is guarded by
// Tuner.mu.
type state struct {
	id          string
	coo         *matrix.COO[float64]
	feat        advisor.FeatureSummary
	arms        []*arm
	byName      map[string]*arm
	incumbent   *arm
	planVersion int64
	cursor      int // round-robin exploration cursor
	settled     bool

	offers  uint64
	taken   uint64
	trials  uint64
	rejects uint64
	history []Promotion

	in kernels.VariantInput // worker-only: lazily materialized formats
}

// lookup returns st's arm for a variant name, resolving a legacy spelling
// to the pooled point that now runs it; nil when the name is no arm.
func (st *state) lookup(name string) *arm {
	v, ok := kernels.ParseVariant(name)
	if !ok {
		return nil
	}
	return st.byName[v.Name]
}

// New builds and starts a Tuner; Close stops it.
func New(cfg Config) *Tuner {
	if cfg.Duty <= 0 {
		cfg.Duty = 0.05
	}
	if cfg.Duty > 0.5 {
		cfg.Duty = 0.5
	}
	if cfg.MinSamples < 1 {
		cfg.MinSamples = 8
	}
	if cfg.Margin <= 0 {
		cfg.Margin = 0.10
	}
	if cfg.Window < 1 {
		cfg.Window = 32
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.Threads < 1 {
		cfg.Threads = parallel.MaxThreads()
	}
	if cfg.Exec == nil {
		cfg.Exec = func(variant string, in *kernels.VariantInput, out *matrix.Dense[float64]) (time.Duration, error) {
			t0 := time.Now()
			err := kernels.RunVariant(variant, in, out)
			return time.Since(t0), err
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	t := &Tuner{
		cfg:    cfg,
		pool:   cfg.Pool,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		states: map[string]*state{},
		queue:  make(chan any, cfg.QueueDepth),
		done:   make(chan struct{}),
	}
	if t.pool == nil {
		t.pool = parallel.NewPool(cfg.Threads)
		t.ownPool = true
	}
	go t.worker()
	return t
}

// Close stops the worker and releases the tuner's pool. Pending queued
// trials are drained (processed) first, so a Close right after a burst of
// offers still records them.
func (t *Tuner) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.queue)
	t.mu.Unlock()
	<-t.done
	if t.ownPool {
		t.pool.Close()
	}
}

// Flush blocks until every trial enqueued before the call has been
// processed — the synchronization point tests and the stats endpoint's
// consistency checks use. No wall clock involved.
func (t *Tuner) Flush() {
	fr := &flushReq{done: make(chan struct{})}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	// The send may block if the queue is full; the worker drains it
	// without needing anything Flush holds.
	select {
	case t.queue <- fr:
		<-fr.done
	case <-t.done:
	}
}

// Track registers a matrix with the tuner: incumbent is the serving plan's
// current variant (the advisor's pick at registration), block the BCSR
// block edge, feat the advisor feature vector (persisted with the profile
// so a recovered profile can be validated against the matrix it claims to
// describe).
func (t *Tuner) Track(id string, coo *matrix.COO[float64], block int, feat advisor.FeatureSummary, incumbent string, planVersion int64) {
	st := &state{
		id:          id,
		coo:         coo,
		feat:        feat,
		byName:      map[string]*arm{},
		planVersion: planVersion,
	}
	st.in.COO, st.in.Block = coo, block
	for _, v := range kernels.ServableVariants() {
		a := &arm{name: v.Name, v: v}
		st.arms = append(st.arms, a)
		st.byName[a.name] = a
	}
	st.incumbent = st.lookup(incumbent)
	if st.incumbent == nil {
		// An incumbent outside the arm space (shouldn't happen — serve
		// derives it from the same registry) falls back to csr/opts-pool.
		st.incumbent = st.byName["csr/opts-pool"]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.states[id]; ok {
		return
	}
	t.states[id] = st
}

// Restore is Track warm-started from a recovered profile. A profile whose
// feature vector does not match the live matrix (the content hash should
// make this impossible, but profiles travel through snapshots) is
// discarded and the matrix starts cold.
func (t *Tuner) Restore(id string, coo *matrix.COO[float64], block int, feat advisor.FeatureSummary, incumbent string, planVersion int64, prof *Profile) error {
	t.Track(id, coo, block, feat, incumbent, planVersion)
	if prof == nil {
		return nil
	}
	if prof.Features != feat {
		return fmt.Errorf("tune: profile for %s does not match the matrix's features; starting cold", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.states[id]
	for _, ap := range prof.Arms {
		a := st.lookup(ap.Variant)
		// A legacy spelling shares its arm with the pooled name; when the
		// profile holds both, the pooled entry wins.
		if a == nil || ap.Variant != a.name && slices.ContainsFunc(prof.Arms, func(o ArmProfile) bool { return o.Variant == a.name }) {
			continue
		}
		a.window = append([]float64(nil), ap.Window...)
		if len(a.window) > t.cfg.Window {
			a.window = a.window[len(a.window)-t.cfg.Window:]
		}
		a.total = ap.Samples
		a.disq = ap.Disqualified
	}
	st.trials = prof.Trials
	st.rejects = prof.Rejects
	st.history = append([]Promotion(nil), prof.History...)
	if a := st.lookup(prof.Incumbent); a != nil {
		st.incumbent = a
	}
	if prof.PlanVersion > st.planVersion {
		st.planVersion = prof.PlanVersion
	}
	return nil
}

// Rebase replaces a tracked matrix's ground truth after its canonical base
// changed under the same serving handle (a mutation-overlay compaction, or
// a cluster import of mutated state): the lab matrix, feature vector and
// plan version are swapped wholesale — the worker never mutates a live
// state in place, so a trial already in flight keeps racing against the
// old base and is dropped by its stale plan version. When the new feature
// vector drifted no more than keepWithin (max relative change across the
// advisor features), the arms' measured windows carry over — the matrix is
// still the same shape and the rankings stay informative; past the
// threshold every arm restarts cold. Returns whether the windows carried.
// An untracked id is simply tracked fresh (kept false).
func (t *Tuner) Rebase(id string, coo *matrix.COO[float64], block int, feat advisor.FeatureSummary, incumbent string, planVersion int64, keepWithin float64) (kept bool) {
	st := &state{
		id:          id,
		coo:         coo,
		feat:        feat,
		byName:      map[string]*arm{},
		planVersion: planVersion,
	}
	st.in.COO, st.in.Block = coo, block
	for _, v := range kernels.ServableVariants() {
		a := &arm{name: v.Name, v: v}
		st.arms = append(st.arms, a)
		st.byName[a.name] = a
	}
	st.incumbent = st.lookup(incumbent)
	if st.incumbent == nil {
		st.incumbent = st.byName["csr/opts-pool"]
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	old := t.states[id]
	if old != nil && keepWithin > 0 && FeatureDrift(old.feat, feat) <= keepWithin {
		kept = true
		for _, a := range st.arms {
			oa := old.byName[a.name]
			if oa == nil {
				continue
			}
			a.window = append([]float64(nil), oa.window...)
			a.total = oa.total
			a.disq = oa.disq
		}
		st.trials = old.trials
		st.rejects = old.rejects
		st.history = old.history
		st.offers, st.taken = old.offers, old.taken
		st.settled = old.settled
		st.cursor = old.cursor
	}
	t.states[id] = st
	return kept
}

// FeatureDrift is the maximum relative change across the advisor feature
// vector — the scalar Rebase compares against its keep-threshold. A
// feature moving off zero counts as full drift.
func FeatureDrift(a, b advisor.FeatureSummary) float64 {
	max := 0.0
	rel := func(x, y float64) {
		d := math.Abs(x - y)
		if d == 0 {
			return
		}
		den := math.Max(math.Abs(x), math.Abs(y))
		if r := d / den; r > max {
			max = r
		}
	}
	rel(float64(a.MaxRow), float64(b.MaxRow))
	rel(a.AvgRow, b.AvgRow)
	rel(a.Ratio, b.Ratio)
	rel(a.Gini, b.Gini)
	rel(a.ELLOverhead, b.ELLOverhead)
	rel(a.BCSRFill4, b.BCSRFill4)
	rel(a.Density, b.Density)
	return max
}

// Offer hands the tuner one completed live multiply: the request panel b
// and the served result. On the configured duty cycle the pair is queued
// for a shadow trial; otherwise (or when the queue is full) it is
// dropped. Offer never blocks and never touches the panels synchronously
// — the caller must hand over ownership (the serving path's per-request
// panels are not reused). Returns whether the sample was queued.
func (t *Tuner) Offer(id, variant string, planVersion int64, b, served *matrix.Dense[float64], k int) bool {
	t.mu.Lock()
	st := t.states[id]
	if st == nil || t.closed {
		t.mu.Unlock()
		return false
	}
	st.offers++
	duty := t.cfg.Duty
	if st.settled {
		duty /= settleFactor
	}
	// Deterministic duty cycling: take the sample whenever the running
	// fraction crosses an integer — floor(n·duty) increments.
	take := int64(float64(st.offers)*duty) > int64(float64(st.offers-1)*duty)
	if take {
		st.taken++
	}
	t.mu.Unlock()
	if !take {
		return false
	}
	s := &sample{id: id, variant: variant, planVersion: planVersion, b: b, served: served, k: k}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	select {
	case t.queue <- s:
		t.mu.Unlock()
		return true
	default:
		t.mu.Unlock()
		t.dropped.Inc()
		return false
	}
}

func (t *Tuner) worker() {
	defer close(t.done)
	for item := range t.queue {
		switch v := item.(type) {
		case *flushReq:
			close(v.done)
		case *sample:
			t.trial(v)
		}
	}
}

// trial runs one paired shadow measurement: re-execute the incumbent on
// the captured panel, verify it reproduces the served result bitwise,
// execute one challenger, verify the challenger against the incumbent,
// and only then trust both timings. Runs on the worker goroutine, on the
// tuner's own pool — never on the request path.
func (t *Tuner) trial(s *sample) {
	t.mu.Lock()
	st := t.states[s.id]
	if st == nil || st.incumbent == nil ||
		st.planVersion != s.planVersion || st.incumbent.name != s.variant {
		// The plan moved between capture and trial; the pair no longer
		// describes the incumbent. Drop it.
		t.mu.Unlock()
		t.stale.Inc()
		return
	}
	inc := st.incumbent
	ch := t.pickChallengerLocked(st)
	t.mu.Unlock()
	if ch == nil {
		return
	}

	// Materialize the formats the pair needs (worker-only lab state).
	if _, err := st.in.Prepare(inc.v); err != nil {
		t.warn("incumbent format unavailable", "id", s.id, "variant", inc.name, "err", err)
		return
	}
	if _, err := st.in.Prepare(ch.v); err != nil {
		t.disqualify(st, ch, "format prepare failed: "+err.Error())
		return
	}

	in := st.in // shallow copy; per-trial operands below
	in.B = s.b
	in.K = s.k
	in.Threads = t.cfg.Threads
	in.Pool = t.pool

	rows := st.coo.Rows
	outInc := matrix.NewDense[float64](rows, s.k)
	outCh := matrix.NewDense[float64](rows, s.k)

	// Paired back-to-back measurement; alternate execution order so
	// cache-warming bias does not systematically favor one side.
	first, second := inc, ch
	firstOut, secondOut := outInc, outCh
	if st.trials%2 == 1 {
		first, second = ch, inc
		firstOut, secondOut = outCh, outInc
	}
	dFirst, err1 := t.cfg.Exec(first.name, &in, firstOut)
	dSecond, err2 := t.cfg.Exec(second.name, &in, secondOut)
	dInc, dCh := dFirst, dSecond
	if first == ch {
		dInc, dCh = dSecond, dFirst
	}
	errInc, errCh := err1, err2
	if first == ch {
		errInc, errCh = err2, err1
	}

	if errInc != nil {
		t.warn("incumbent shadow execution failed", "id", s.id, "variant", inc.name, "err", errInc)
		return
	}
	if diff, err := outInc.MaxAbsDiff(s.served); err != nil || diff != 0 {
		// The incumbent re-run does not reproduce what was served: the
		// captured pair is not trustworthy (plan skew or a real serving
		// bug) — reject the whole trial, trust neither timing.
		t.reject(st, inc.name, "incumbent re-run diverges from served result")
		return
	}
	if errCh != nil {
		t.disqualify(st, ch, "execution failed: "+errCh.Error())
		return
	}
	if diff, err := outCh.MaxAbsDiff(outInc); err != nil || diff != 0 {
		// A bitwise-contract variant that does not reproduce the served
		// bits is wrong; its timing must never be trusted, fast or not.
		t.disqualify(st, ch, "output diverges bitwise from incumbent")
		return
	}

	t.mu.Lock()
	inc.push(float64(dInc.Microseconds()), t.cfg.Window)
	ch.push(float64(dCh.Microseconds()), t.cfg.Window)
	st.trials++
	cand, fromP50, toP50 := t.candidateLocked(st)
	regret := t.regretLocked()
	t.mu.Unlock()

	t.trials.Inc()
	t.trialSeconds.Observe((dInc + dCh).Seconds())
	t.regret.Set(regret)

	if cand != nil {
		t.promote(st, cand, fromP50, toP50)
	}
}

// pickChallengerLocked selects the arm to race this trial. Exploration is
// round-robin until every live arm has MinSamples; after that the
// runner-up keeps its window fresh (so a promotion can trigger or decay),
// and a converged matrix marks itself settled — duty drops — while an
// occasional random arm watches for drift.
func (t *Tuner) pickChallengerLocked(st *state) *arm {
	n := len(st.arms)
	for i := 0; i < n; i++ {
		a := st.arms[(st.cursor+i)%n]
		if a == st.incumbent || a.disq {
			continue
		}
		if a.total < t.cfg.MinSamples {
			st.cursor = (st.cursor + i + 1) % n
			return a
		}
	}
	// Fully explored: find the best non-incumbent by p50.
	var best *arm
	for _, a := range st.arms {
		if a == st.incumbent || a.disq || len(a.window) == 0 {
			continue
		}
		if best == nil || a.p50() < best.p50() {
			best = a
		}
	}
	if best == nil {
		return nil
	}
	if best.p50() < st.incumbent.p50()*(1-t.cfg.Margin) {
		// A promotion is brewing; keep measuring the pair.
		return best
	}
	if !st.settled {
		st.settled = true
		t.info("matrix settled", "id", st.id, "incumbent", st.incumbent.name,
			"trials", st.trials)
	}
	// Settled: sample a random live arm occasionally to catch drift.
	live := st.arms[:0:0]
	for _, a := range st.arms {
		if a != st.incumbent && !a.disq {
			live = append(live, a)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[t.rng.Intn(len(live))]
}

// candidateLocked applies the promotion rule: the best fully-sampled
// challenger whose p50 beats the incumbent's p50 by the hysteresis margin,
// with the incumbent itself fully sampled too.
func (t *Tuner) candidateLocked(st *state) (cand *arm, fromP50, toP50 float64) {
	inc := st.incumbent
	if inc == nil || inc.total < t.cfg.MinSamples {
		return nil, 0, 0
	}
	var best *arm
	for _, a := range st.arms {
		if a == inc || a.disq || a.total < t.cfg.MinSamples {
			continue
		}
		if best == nil || a.p50() < best.p50() {
			best = a
		}
	}
	if best == nil {
		return nil, 0, 0
	}
	fromP50, toP50 = inc.p50(), best.p50()
	if toP50 < fromP50*(1-t.cfg.Margin) {
		return best, fromP50, toP50
	}
	return nil, 0, 0
}

// promote installs cand as the matrix's incumbent through the Promote
// callback (which re-prepares the serving plan) and persists the updated
// profile. Called without t.mu held — the callback prepares a format.
func (t *Tuner) promote(st *state, cand *arm, fromP50, toP50 float64) {
	if t.cfg.Promote == nil {
		return
	}
	pr := Promotion{
		From: st.incumbent.name, To: cand.name,
		FromP50Micros: fromP50, ToP50Micros: toP50,
		Trials: st.trials, UnixNanos: t.cfg.Now().UnixNano(),
	}
	ver, err := t.cfg.Promote(st.id, pr)
	if err != nil {
		t.warn("promotion failed; keeping incumbent", "id", st.id,
			"from", pr.From, "to", pr.To, "err", err)
		return
	}
	t.mu.Lock()
	st.incumbent = cand
	st.planVersion = ver
	st.history = append(st.history, pr)
	st.settled = false
	prof := st.profileLocked()
	t.mu.Unlock()
	t.promotions.Inc()
	t.info("variant promoted", "id", st.id, "from", pr.From, "to", pr.To,
		"p50_from_us", fromP50, "p50_to_us", toP50, "plan_version", ver)
	if t.cfg.Persist != nil {
		if err := t.cfg.Persist(st.id, prof); err != nil {
			t.warn("profile persist failed; next snapshot will cover it",
				"id", st.id, "err", err)
		}
	}
}

func (t *Tuner) reject(st *state, variant, why string) {
	t.mu.Lock()
	st.rejects++
	t.mu.Unlock()
	t.rejects.Inc()
	t.warn("shadow trial rejected", "id", st.id, "variant", variant, "why", why)
}

func (t *Tuner) disqualify(st *state, a *arm, why string) {
	t.mu.Lock()
	a.disq = true
	st.rejects++
	t.mu.Unlock()
	t.disqualified.Inc()
	t.warn("variant disqualified", "id", st.id, "variant", a.name, "why", why)
}

// regretLocked estimates the tuner's current regret: the mean relative
// p50 gap between each matrix's incumbent and its best measured arm (0
// when the incumbent is the best known arm). A rough, optimistic
// estimate — unexplored arms contribute nothing.
func (t *Tuner) regretLocked() float64 {
	var sum float64
	var n int
	for _, st := range t.states {
		if st.incumbent == nil || len(st.incumbent.window) == 0 {
			continue
		}
		n++
		incP50 := st.incumbent.p50()
		best := incP50
		for _, a := range st.arms {
			if a.disq || len(a.window) == 0 {
				continue
			}
			if p := a.p50(); p < best {
				best = p
			}
		}
		if incP50 > 0 && best < incP50 {
			sum += (incP50 - best) / incP50
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (t *Tuner) warn(msg string, args ...any) {
	if t.cfg.Log != nil {
		t.cfg.Log.Warn(msg, args...)
	}
}

func (t *Tuner) info(msg string, args ...any) {
	if t.cfg.Log != nil {
		t.cfg.Log.Info(msg, args...)
	}
}
