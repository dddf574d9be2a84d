package tune

import (
	"sort"

	"repro/internal/advisor"
)

// Profile is one matrix's learned tuning state — the artifact that
// persists through the serving WAL/snapshot path so a recovered or
// re-registered matrix starts warm instead of re-exploring. JSON encoding
// is deterministic (no maps), which the WAL's CRC-over-remarshal check
// requires.
type Profile struct {
	// ID is the content-addressed matrix ID the profile describes.
	ID string `json:"id"`
	// Features is the advisor feature vector of the matrix at learn time;
	// recovery discards a profile whose features do not match the live
	// matrix.
	Features advisor.FeatureSummary `json:"features"`
	// Incumbent is the currently-serving variant.
	Incumbent string `json:"incumbent"`
	// PlanVersion is the serving-plan version the incumbent holds.
	PlanVersion int64 `json:"plan_version"`
	// Trials/Rejects are lifetime counters for the matrix.
	Trials  uint64 `json:"trials"`
	Rejects uint64 `json:"rejects,omitempty"`
	// Arms are the measured variant rankings, fastest first.
	Arms []ArmProfile `json:"arms,omitempty"`
	// History is the promotion trail, oldest first.
	History []Promotion `json:"history,omitempty"`
}

// ArmProfile is one variant's measurement summary inside a Profile.
type ArmProfile struct {
	Variant string `json:"variant"`
	// Samples is the lifetime shadow-trial count.
	Samples int `json:"samples"`
	// P50Micros is the median of the current window.
	P50Micros float64 `json:"p50_micros"`
	// Window is the recent per-dispatch timings in microseconds, oldest
	// first — persisted so recovery restores the estimator, not just the
	// point estimate.
	Window []float64 `json:"window,omitempty"`
	// Disqualified marks an arm that failed bitwise verification.
	Disqualified bool `json:"disqualified,omitempty"`
}

// Promotion is one incumbent change in a matrix's decision trail.
type Promotion struct {
	From          string  `json:"from"`
	To            string  `json:"to"`
	FromP50Micros float64 `json:"from_p50_micros"`
	ToP50Micros   float64 `json:"to_p50_micros"`
	// Trials is the matrix's trial count when the promotion fired.
	Trials uint64 `json:"trials"`
	// UnixNanos timestamps the promotion (Config.Now).
	UnixNanos int64 `json:"unix_nanos"`
}

// profileLocked snapshots the state as a Profile. Caller holds t.mu.
func (st *state) profileLocked() *Profile {
	p := &Profile{
		ID:          st.id,
		Features:    st.feat,
		PlanVersion: st.planVersion,
		Trials:      st.trials,
		Rejects:     st.rejects,
		History:     append([]Promotion(nil), st.history...),
	}
	if st.incumbent != nil {
		p.Incumbent = st.incumbent.name
	}
	for _, a := range st.arms {
		if a.total == 0 && !a.disq {
			continue
		}
		p.Arms = append(p.Arms, ArmProfile{
			Variant:      a.name,
			Samples:      a.total,
			P50Micros:    a.p50(),
			Window:       append([]float64(nil), a.window...),
			Disqualified: a.disq,
		})
	}
	sort.SliceStable(p.Arms, func(i, j int) bool {
		if p.Arms[i].Disqualified != p.Arms[j].Disqualified {
			return !p.Arms[i].Disqualified
		}
		return p.Arms[i].P50Micros < p.Arms[j].P50Micros
	})
	return p
}

// Profiles snapshots every tracked matrix's profile — the snapshotter's
// source for profile records.
func (t *Tuner) Profiles() []*Profile {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.states))
	for id := range t.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Profile, 0, len(ids))
	for _, id := range ids {
		out = append(out, t.states[id].profileLocked())
	}
	return out
}

// Profile returns one matrix's current profile, or nil if untracked.
func (t *Tuner) Profile(id string) *Profile {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.states[id]
	if st == nil {
		return nil
	}
	return st.profileLocked()
}

// Measured converts a matrix's measured arm rankings into the advisor's
// Measurement form (fastest first, disqualified arms omitted) — what the
// register response and /v1/tune attach to advisor.Report.Measured.
func (t *Tuner) Measured(id string) []advisor.Measurement {
	prof := t.Profile(id)
	if prof == nil {
		return nil
	}
	var out []advisor.Measurement
	for _, a := range prof.Arms {
		if a.Disqualified || a.Samples == 0 {
			continue
		}
		out = append(out, advisor.Measurement{
			Variant: a.Variant, Samples: a.Samples, P50Micros: a.P50Micros,
		})
	}
	return out
}

// MatrixStats is one matrix's row in the /v1/tune stats payload.
type MatrixStats struct {
	ID          string       `json:"id"`
	Incumbent   string       `json:"incumbent"`
	PlanVersion int64        `json:"plan_version"`
	Offers      uint64       `json:"offers"`
	Sampled     uint64       `json:"sampled"`
	Trials      uint64       `json:"trials"`
	Rejects     uint64       `json:"rejects"`
	Settled     bool         `json:"settled"`
	Arms        []ArmProfile `json:"arms,omitempty"`
	History     []Promotion  `json:"history,omitempty"`
}

// Stats is the tuner's full decision-trail snapshot (the /v1/tune body).
// Rejects counts every discarded trial: incumbent re-runs that diverged plus
// challengers disqualified — two counters, summed once in Tuner.Stats.
type Stats struct {
	Enabled    bool          `json:"enabled"`
	Duty       float64       `json:"duty"`
	MinSamples int           `json:"min_samples"`
	Margin     float64       `json:"margin"`
	Trials     int64         `json:"trials"`
	Promotions int64         `json:"promotions"`
	Rejects    int64         `json:"rejects"`
	Dropped    int64         `json:"dropped"`
	Stale      int64         `json:"stale"`
	Matrices   []MatrixStats `json:"matrices,omitempty"`
}

// Stats snapshots the tuner's counters and per-matrix state.
func (t *Tuner) Stats() Stats {
	s := Stats{
		Enabled:    true,
		Duty:       t.cfg.Duty,
		MinSamples: t.cfg.MinSamples,
		Margin:     t.cfg.Margin,
		Trials:     t.trials.Value(),
		Promotions: t.promotions.Value(),
		Rejects:    t.rejects.Value() + t.disqualified.Value(),
		Dropped:    t.dropped.Value(),
		Stale:      t.stale.Value(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.states))
	for id := range t.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := t.states[id]
		prof := st.profileLocked()
		ms := MatrixStats{
			ID:          id,
			Incumbent:   prof.Incumbent,
			PlanVersion: st.planVersion,
			Offers:      st.offers,
			Sampled:     st.taken,
			Trials:      st.trials,
			Rejects:     st.rejects,
			Settled:     st.settled,
			Arms:        prof.Arms,
			History:     prof.History,
		}
		s.Matrices = append(s.Matrices, ms)
	}
	return s
}
