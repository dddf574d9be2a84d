package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// Router-side request tracing: the record ring endpoint and the stitcher
// that merges the router's attempt spans with replica-reported timings into
// one multi-process Chrome trace.
//
// Alignment model: every record's span offsets are relative to its own
// process's request start, so wall-clock skew between machines never enters
// the picture. The router places a replica's spans inside the attempt-remote
// span that carried them — the replica's own queue/batch/kernel breakdown
// then renders nested under the attempt, on its own process row.

// finishRequest seals a router-side request record, its chain closed by
// phase last when that is non-empty (trace.Req.Finish), and emits the
// slow-request slog line when the end-to-end time crosses the threshold.
func (rt *Router) finishRequest(req *trace.Req, last string) {
	if req == nil {
		return
	}
	rec := req.Finish(last)
	if rt.cfg.SlowRequest > 0 && rt.cfg.Log != nil && time.Duration(rec.TotalNs) >= rt.cfg.SlowRequest {
		attrs := []any{"rid", rec.ID, "matrix", rec.Subject,
			"total_ms", float64(rec.TotalNs) / 1e6}
		attempts := 0
		for _, sp := range rec.Spans {
			if sp.Name == trace.PhaseAttemptRemote {
				attempts++
				attrs = append(attrs, fmt.Sprintf("attempt%d", attempts),
					fmt.Sprintf("%s %.3fms", sp.Detail, float64(sp.Dur)/1e6))
			}
		}
		attrs = append(attrs, "attempts", attempts)
		if rec.Error != "" {
			attrs = append(attrs, "err", rec.Error)
		}
		rt.log.Warn("slow request", attrs...)
	}
}

// failRequest seals a router-side record that ended in an error.
func (rt *Router) failRequest(req *trace.Req, err error) {
	if req == nil {
		return
	}
	if err != nil {
		req.SetError(err.Error())
	}
	rt.finishRequest(req, "")
}

// handleTraceRequests serves the router's own recent request records, same
// query surface as the replicas' endpoint (?id=, ?matrix=, ?min_ms=, ?n=).
func (rt *Router) handleTraceRequests(w http.ResponseWriter, r *http.Request) {
	recs, err := serve.TraceRequestsQuery(rt.reqs, r.URL.Query())
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, recs)
}

// handleTraceChrome stitches one request's distributed timeline into a
// Chrome trace_event export: the router's record becomes the first process
// row, and for every replica an attempt-remote span reached, the replica's
// own record (pulled live from its /v1/trace/requests ring) is aligned into
// the attempt and added as another process row. Load the result in
// chrome://tracing or https://ui.perfetto.dev.
func (rt *Router) handleTraceChrome(w http.ResponseWriter, r *http.Request) {
	rid := r.PathValue("rid")
	recs := rt.reqs.Snapshot(trace.ReqFilter{ID: rid, Limit: 1})
	if len(recs) == 0 {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: no trace record for request %q", rid))
		return
	}
	rec := recs[0]
	procs := []trace.Process{{Name: "router", Spans: rec.Spans}}
	seen := map[string]bool{}
	for _, sp := range rec.Spans {
		if sp.Name != trace.PhaseAttemptRemote {
			continue
		}
		name, verdict, _ := strings.Cut(sp.Detail, " ")
		if name == "" || seen[name] {
			continue
		}
		if verdict != "ok" {
			// A failed attempt has no replica record to pull — and its
			// replica may be hung or dead, so asking would block the export.
			// The attempt span on the router row still shows the failure.
			continue
		}
		rt.mu.Lock()
		rep := rt.replicas[name]
		rt.mu.Unlock()
		if rep == nil {
			continue
		}
		wire, err := rt.client(rep).TraceRequests(rid, "", 0, 1)
		if err != nil || len(wire) == 0 {
			continue
		}
		seen[name] = true
		spans := wire[0].ReqSpans()
		for j := range spans {
			spans[j].Start += sp.Start
		}
		procs = append(procs, trace.Process{Name: "replica " + name, Spans: spans})
	}
	// Keep replica rows in a stable order for goldens and diffs.
	sort.Slice(procs[1:], func(i, j int) bool { return procs[1+i].Name < procs[1+j].Name })
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteStitchedChromeTrace(w, procs); err != nil {
		rt.log.Warn("stitched trace write failed", "err", err)
	}
}
