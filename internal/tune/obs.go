package tune

import "repro/internal/obs"

// ExportMetrics names the tuner's metrics in r — the tuner's only name/help
// table; the values are the fields Stats reads. The tuner's whole value is
// its decision trail: every trial, rejection and promotion lands here so a
// `-metrics` monitor can watch convergence without scraping /v1/tune. The
// serving layer calls it from Server.ExportMetrics; a second tuner exported
// into the same registry panics on the first counter.
func (t *Tuner) ExportMetrics(r *obs.Registry) {
	r.AttachCounter("spmm_tune_trials_total",
		"Shadow measurement trials completed (one paired incumbent/challenger run).", &t.trials)
	r.AttachCounter("spmm_tune_promotions_total",
		"Incumbent variant changes committed to the serving plan.", &t.promotions)
	r.AttachCounter("spmm_tune_rejects_total",
		"Trials discarded because the incumbent re-run did not bitwise-match the served result.", &t.rejects)
	r.AttachCounter("spmm_tune_disqualified_total",
		"Arms permanently removed after a challenger error or bitwise mismatch.", &t.disqualified)
	r.AttachCounter("spmm_tune_dropped_total",
		"Sampled multiplies dropped because the trial queue was full.", &t.dropped)
	r.AttachCounter("spmm_tune_stale_total",
		"Queued samples discarded because the serving plan changed before the trial ran.", &t.stale)
	r.AttachHistogram("spmm_tune_trial_seconds",
		"Wall time of one paired shadow trial (both arms, off the request path).", &t.trialSeconds)
	r.AttachGauge("spmm_tune_regret",
		"Mean relative p50 gap between served incumbents and the best measured arm (0 = serving the fastest known variant everywhere).", &t.regret)
	r.NewGaugeFunc("spmm_tune_duty_cycle",
		"Configured fraction of live multiplies sampled for shadow measurement.",
		func() float64 { return t.cfg.Duty })
}
