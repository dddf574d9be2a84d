package harness

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Campaign-progress metrics, exported to the process-wide registry alongside
// the harness's own per-campaign tallies (which feed the end-of-campaign
// summary table). spmm_harness_runs_total counts every settled run — the live
// progress figure a `-serve` scrape watches climb during a campaign.
var (
	obsRuns = obs.NewCounter("spmm_harness_runs_total",
		"Runs settled by the campaign harness (ok, degraded, failed or skipped).")
	obsStatusOK = obs.NewCounter(`spmm_harness_run_status_total{status="ok"}`,
		"Settled runs by terminal status.")
	obsStatusDegraded = obs.NewCounter(`spmm_harness_run_status_total{status="degraded"}`,
		"Settled runs by terminal status.")
	obsStatusFailed = obs.NewCounter(`spmm_harness_run_status_total{status="failed"}`,
		"Settled runs by terminal status.")
	obsStatusSkipped = obs.NewCounter(`spmm_harness_run_status_total{status="skipped"}`,
		"Settled runs by terminal status.")
	obsRetries = obs.NewCounter("spmm_harness_retries_total",
		"Retry attempts granted to transient failures.")
	obsBackoffSeconds = obs.NewHistogram("spmm_harness_backoff_seconds",
		"Backoff delays slept between retry attempts, in seconds.")
	obsDegrades = obs.NewCounter("spmm_harness_degrades_total",
		"Format degradations forced by the memory budget.")
)

// lastAppend is the unix-nano timestamp of the last successful journal
// append; zero until the first checkpoint of the process.
var lastAppend atomic.Int64

func init() {
	obs.NewGaugeFunc("spmm_harness_checkpoint_age_seconds",
		"Seconds since the journal last grew (-1 before the first checkpoint).",
		func() float64 {
			ns := lastAppend.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}

// countOutcome exports one settled run.
func countOutcome(status string) {
	obsRuns.Inc()
	switch status {
	case StatusOK:
		obsStatusOK.Inc()
	case StatusDegraded:
		obsStatusDegraded.Inc()
	case StatusFailed:
		obsStatusFailed.Inc()
	case StatusSkipped:
		obsStatusSkipped.Inc()
	}
}
