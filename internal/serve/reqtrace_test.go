package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/trace"
)

// Tests for per-request tracing on a single server: response headers, the
// timing codec, the record ring endpoint, batch fan-out, and the
// slow-request log line.

func TestFormatParseTimingRoundTrip(t *testing.T) {
	rec := trace.ReqRecord{
		ID: "r1", Subject: "m", TotalNs: 2_202_000,
		Spans: []trace.ReqSpan{
			{Name: trace.PhaseQueue, Dur: 12_000},
			{Name: trace.PhasePrepare, Dur: 1_000},
			{Name: trace.PhasePrepare, Dur: 2_000}, // same-named spans sum
			{Name: trace.PhaseKernel, Dur: 1_254_000},
		},
	}
	s := FormatTiming(rec, trace.PhaseRespond, 500_000)
	timing, ok := ParseTiming(s)
	if !ok || !timing.Valid() {
		t.Fatalf("ParseTiming(%q) not ok", s)
	}
	if got := timing.Ms(trace.PhasePrepare); math.Abs(got-0.003) > 1e-9 {
		t.Fatalf("prepare = %v ms, want 0.003 (summed)", got)
	}
	if got := timing.Ms(trace.PhaseRespond); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("respond = %v ms, want 0.5", got)
	}
	if math.Abs(timing.TotalMs-2.202) > 1e-9 {
		t.Fatalf("total = %v ms, want 2.202", timing.TotalMs)
	}
	// Phase order is recording order.
	if timing.Phases[0].Phase != trace.PhaseQueue || timing.Phases[len(timing.Phases)-1].Phase != trace.PhaseRespond {
		t.Fatalf("phase order = %+v", timing.Phases)
	}
	if _, ok := ParseTiming(""); ok {
		t.Fatal("empty header parsed as valid")
	}
	if _, ok := ParseTiming("queue=abc"); ok {
		t.Fatal("malformed header parsed as valid")
	}
}

func TestMultiplyRequestTracing(t *testing.T) {
	const k = 64
	s, client, _ := newTestServer(t, Config{
		Threads:      2,
		BatchWindow:  200 * time.Microsecond,
		ReqTraceRing: 64,
	})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 7)
	// Warm the prepared-format cache so the traced request is steady-state.
	if _, err := client.Multiply(reg.ID, reg.Rows, b, k, 0); err != nil {
		t.Fatal(err)
	}
	res, err := client.Multiply(reg.ID, reg.Rows, b, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID == "" {
		t.Fatal("traced multiply returned no X-Spmm-Request-Id")
	}
	if !res.Timing.Valid() {
		t.Fatal("traced multiply returned no X-Spmm-Timing")
	}
	for _, phase := range []string{trace.PhaseQueue, trace.PhasePrepare, trace.PhaseBatch, trace.PhaseKernel, trace.PhaseRespond} {
		if res.Timing.Ms(phase) < 0 {
			t.Fatalf("phase %s has negative ms", phase)
		}
		found := false
		for _, p := range res.Timing.Phases {
			if p.Phase == phase {
				found = true
			}
		}
		if !found {
			t.Errorf("X-Spmm-Timing missing phase %q: %+v", phase, res.Timing.Phases)
		}
	}
	// The per-phase breakdown must account for the request. Its phases are
	// one chain from the request's begin, each starting where the one before
	// it ended, so the header's phases add up to its total but for rounding
	// every entry to the microsecond.
	slack := 0.0005*float64(len(res.Timing.Phases)+1) + 1e-9
	if gap := math.Abs(res.Timing.TotalMs - res.Timing.SumMs()); gap > slack {
		t.Errorf("phase sum %.3f ms vs total %.3f ms: gap %.4f ms exceeds the %.4f ms of rounding",
			res.Timing.SumMs(), res.Timing.TotalMs, gap, slack)
	}
	// The handler seals the record after the response body is written, so
	// the client can read the response first.
	var ring []trace.ReqRecord
	for deadline := time.Now().Add(10 * time.Second); len(ring) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		ring = s.RequestTraces().Snapshot(trace.ReqFilter{ID: res.RequestID})
	}
	if len(ring) != 1 {
		t.Fatalf("ring holds %d records for id %s", len(ring), res.RequestID)
	}
	var end int64
	for _, sp := range ring[0].Spans {
		if sp.Start != end {
			t.Errorf("span %s starts at %d ns, the chain stood at %d: %+v", sp.Name, sp.Start, end, ring[0].Spans)
		}
		end = sp.Start + sp.Dur
	}
	if end > ring[0].TotalNs {
		t.Errorf("spans end at %d ns, after the request's total %d", end, ring[0].TotalNs)
	}

	// The record must be queryable from the ring endpoint by its ID.
	recs, err := client.TraceRequests(res.RequestID, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("trace endpoint returned %d records for id %s", len(recs), res.RequestID)
	}
	rec := recs[0]
	if rec.Matrix != reg.ID {
		t.Fatalf("record matrix = %s, want %s", rec.Matrix, reg.ID)
	}
	var kernel, batch *RequestTracePhase
	for i := range rec.Phases {
		switch rec.Phases[i].Phase {
		case trace.PhaseKernel:
			kernel = &rec.Phases[i]
		case trace.PhaseBatch:
			batch = &rec.Phases[i]
		}
	}
	if kernel == nil || batch == nil {
		t.Fatalf("ring record missing batch/kernel spans: %+v", rec.Phases)
	}
	if kernel.Detail != res.Variant {
		t.Errorf("kernel span detail = %q, want served variant %q", kernel.Detail, res.Variant)
	}
	if batch.Detail != res.Format {
		t.Errorf("batch span detail = %q, want served format %q", batch.Detail, res.Format)
	}
	if batch.Arg < 1 || kernel.Arg < int64(k) {
		t.Errorf("span args batch=%d kernel=%d, want width >= 1 and totalK >= %d", batch.Arg, kernel.Arg, k)
	}

	// Matrix filter and min_ms filter reach the same record.
	byMatrix, err := client.TraceRequests("", reg.ID, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(byMatrix) == 0 {
		t.Fatal("matrix filter found nothing")
	}
	if _, err := client.TraceRequests("", "", -1, 0); err != nil {
		t.Fatal(err) // negative minMs is omitted client-side, not an error
	}
}

func TestMultiplyAdoptsClientRequestID(t *testing.T) {
	const k = 4
	s, client, _ := newTestServer(t, Config{Threads: 1, ReqTraceRing: 16})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 3)
	var payload bytes.Buffer
	if err := WritePanel(&payload, b, k); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/matrices/%s/multiply?k=%d", client.Base, reg.ID, k)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderRequestID, "edge-rid-42")
	resp, err := client.http().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply returned %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != "edge-rid-42" {
		t.Fatalf("server echoed rid %q, want the client-supplied edge-rid-42", got)
	}
	if got := s.RequestTraces().Snapshot(trace.ReqFilter{ID: "edge-rid-42"}); len(got) != 1 {
		t.Fatalf("ring has %d records under the adopted id", len(got))
	}
}

func TestRequestTracingDisabled(t *testing.T) {
	const k = 4
	s, client, _ := newTestServer(t, Config{Threads: 1}) // ReqTraceRing 0
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 3)
	res, err := client.Multiply(reg.ID, reg.Rows, b, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "" || res.Timing.Valid() {
		t.Fatalf("disabled tracing still set headers: rid=%q timing=%+v", res.RequestID, res.Timing)
	}
	if s.RequestTraces() != nil {
		t.Fatal("disabled server has a live request ring")
	}
	// The endpoint stays mounted and answers with an empty list.
	recs, err := client.TraceRequests("", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("disabled ring returned %d records", len(recs))
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer for capturing slog output.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowRequestLog(t *testing.T) {
	const k = 4
	var logbuf lockedBuffer
	_, client, _ := newTestServer(t, Config{
		Threads:      1,
		ReqTraceRing: 16,
		SlowRequest:  time.Nanosecond, // every request is "slow"
		Log:          slog.New(slog.NewTextHandler(&logbuf, nil)),
	})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 3)
	res, err := client.Multiply(reg.ID, reg.Rows, b, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := logbuf.String()
	if !strings.Contains(out, "slow request") {
		t.Fatalf("no slow-request line in log:\n%s", out)
	}
	if !strings.Contains(out, res.RequestID) {
		t.Fatalf("slow-request line is not correlated with rid %s:\n%s", res.RequestID, out)
	}
	if !strings.Contains(out, "kernel_ms=") || !strings.Contains(out, "total_ms=") {
		t.Fatalf("slow-request line missing phase breakdown:\n%s", out)
	}
}
