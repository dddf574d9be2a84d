package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Tests for the request-scoped tracing layer: nil-safety of the disabled
// path, ring bounding and filtering, the done-flag race guard, and the
// stitched multi-process Chrome export.

func TestRequestsDisabledNilSafe(t *testing.T) {
	var rr *Requests
	if rr.Enabled() {
		t.Fatal("nil *Requests reports Enabled")
	}
	req := rr.Begin("rid-1", "m1") // must be nil
	if req != nil {
		t.Fatal("Begin on nil *Requests returned a live *Req")
	}
	// Every *Req method must be a no-op on nil.
	if req.ID() != "" {
		t.Fatal("nil Req has an ID")
	}
	if req.Now() != 0 {
		t.Fatal("nil Req reports a nonzero Now")
	}
	if req.At(time.Now()) != 0 {
		t.Fatal("nil Req reports a nonzero At")
	}
	req.Step(PhaseQueue, "", 0)
	req.StepTo(PhaseBatch, "", 5, 1)
	if req.Pos() != 0 {
		t.Fatal("nil Req reports a nonzero Pos")
	}
	req.SetError("boom")
	if rec := req.Snapshot(); len(rec.Spans) != 0 {
		t.Fatal("nil Req snapshot has spans")
	}
	if rec := req.Finish(""); rec.ID != "" {
		t.Fatal("nil Req Finish returned a record")
	}
	if got := rr.Snapshot(ReqFilter{}); got != nil {
		t.Fatalf("nil Requests snapshot = %v, want nil", got)
	}
	if rr.Total() != 0 {
		t.Fatal("nil Requests has a total")
	}
	if NewRequests(0) != nil || NewRequests(-3) != nil {
		t.Fatal("NewRequests with cap <= 0 should disable (nil)")
	}
}

func TestRequestsDisabledZeroAlloc(t *testing.T) {
	var rr *Requests
	allocs := testing.AllocsPerRun(100, func() {
		req := rr.Begin("rid", "m")
		s := req.Now()
		req.Step(PhaseQueue, "", 0)
		req.StepTo(PhaseBatch, "csr", s, 1)
		req.StepTo(PhaseKernel, "csr", s+5, 1)
		req.Finish("")
	})
	if allocs != 0 {
		t.Fatalf("disabled request-trace path allocates %v per op, want 0", allocs)
	}
}

func TestRequestLifecycle(t *testing.T) {
	rr := NewRequests(8)
	if !rr.Enabled() {
		t.Fatal("NewRequests(8) not enabled")
	}
	req := rr.Begin("rid-7", "mat-a")
	if req == nil {
		t.Fatal("Begin returned nil on an enabled ring")
	}
	if req.ID() != "rid-7" {
		t.Fatalf("ID = %q", req.ID())
	}
	time.Sleep(time.Millisecond)
	req.Step(PhaseQueue, "", 3)
	if req.Pos() <= 0 {
		t.Fatalf("after a Step the chain stands at %d, want > 0", req.Pos())
	}
	req.StepTo(PhaseKernel, "csr-omp", req.Pos()+2e6, 64)
	rec := req.Finish("")
	if rec.ID != "rid-7" || rec.Subject != "mat-a" {
		t.Fatalf("record identity = %q/%q", rec.ID, rec.Subject)
	}
	if rec.TotalNs <= 0 {
		t.Fatalf("TotalNs = %d, want > 0", rec.TotalNs)
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(rec.Spans))
	}
	if rec.Spans[0].Name != PhaseQueue || rec.Spans[1].Name != PhaseKernel {
		t.Fatalf("span order = %q, %q", rec.Spans[0].Name, rec.Spans[1].Name)
	}
	if rec.Spans[1].Detail != "csr-omp" || rec.Spans[1].Arg != 64 {
		t.Fatalf("kernel span = %+v", rec.Spans[1])
	}

	// Finished record must be in the ring.
	got := rr.Snapshot(ReqFilter{ID: "rid-7"})
	if len(got) != 1 || got[0].ID != "rid-7" {
		t.Fatalf("ring snapshot by ID = %+v", got)
	}

	// Post-Finish span adds (a late batcher flush) must drop silently.
	req.StepTo(PhaseBatch, "", req.Pos()+1, 1)
	if got := rr.Snapshot(ReqFilter{ID: "rid-7"}); len(got[0].Spans) != 2 {
		t.Fatal("StepTo after Finish mutated the sealed record")
	}
	// Double Finish must not duplicate the ring entry.
	req.Finish("")
	if n := len(rr.Snapshot(ReqFilter{ID: "rid-7"})); n != 1 {
		t.Fatalf("double Finish produced %d ring entries", n)
	}
}

// TestRequestStepsAreContiguous: the first Step starts at the request's
// begin, each later Step (or StepTo) on the clock read that ended the one
// before, and the phase Finish closes the chain with ends on the clock read
// that stamps the total, so the chain's spans tile the request from its
// begin to its seal exactly; on a nil *Req Step and Finish are no-ops.
func TestRequestStepsAreContiguous(t *testing.T) {
	var off *Req
	off.Step(PhaseLoad, "", 0)
	off.Finish(PhaseRespond)

	req := NewRequests(4).Begin("rid-s", "mat-s")
	time.Sleep(time.Millisecond)
	for i, phase := range []string{PhaseLoad, PhaseAttemptRemote, PhaseAttemptRemote} {
		time.Sleep(100 * time.Microsecond)
		if i == 2 { // a span measured elsewhere joins the chain the same way
			req.StepTo(phase, "", req.Now(), 0)
			continue
		}
		req.Step(phase, "", 0)
	}
	time.Sleep(100 * time.Microsecond)
	rec := req.Finish(PhaseRespond)
	if len(rec.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(rec.Spans))
	}
	if rec.Spans[0].Start != 0 || rec.Spans[0].Dur < int64(time.Millisecond) {
		t.Fatalf("first Step spans [%d, %d) ns, want it to start at the begin and cover the 1 ms before it",
			rec.Spans[0].Start, rec.Spans[0].Start+rec.Spans[0].Dur)
	}
	for i, sp := range rec.Spans {
		if sp.Dur <= 0 {
			t.Fatalf("span %d (%s) has duration %d", i, sp.Name, sp.Dur)
		}
		if i > 0 && sp.Start != rec.Spans[i-1].Start+rec.Spans[i-1].Dur {
			t.Fatalf("span %d starts at %d, the span before ended at %d",
				i, sp.Start, rec.Spans[i-1].Start+rec.Spans[i-1].Dur)
		}
	}
	if last := rec.Spans[3]; last.Name != PhaseRespond || last.Start+last.Dur != rec.TotalNs {
		t.Fatalf("last span %s ends at %d, the record's total is %d", last.Name, last.Start+last.Dur, rec.TotalNs)
	}
	if again := req.Finish(PhaseRespond); len(again.Spans) != 4 || again.TotalNs != rec.TotalNs {
		t.Fatalf("a second Finish changed the sealed record: %d spans, total %d", len(again.Spans), again.TotalNs)
	}
}

func TestRequestsRingBoundAndFilters(t *testing.T) {
	rr := NewRequests(4)
	for i := 0; i < 10; i++ {
		req := rr.Begin(fmt.Sprintf("rid-%d", i), fmt.Sprintf("mat-%d", i%2))
		req.StepTo(PhaseKernel, "", int64(i)*1e6, 1)
		req.Finish("")
	}
	if rr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", rr.Total())
	}
	all := rr.Snapshot(ReqFilter{})
	if len(all) != 4 {
		t.Fatalf("ring holds %d records, want cap 4", len(all))
	}
	// Newest first: rid-9, rid-8, rid-7, rid-6.
	for i, want := range []string{"rid-9", "rid-8", "rid-7", "rid-6"} {
		if all[i].ID != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, all[i].ID, want)
		}
	}
	bySubj := rr.Snapshot(ReqFilter{Subject: "mat-0"})
	for _, r := range bySubj {
		if r.Subject != "mat-0" {
			t.Fatalf("subject filter leaked %+v", r)
		}
	}
	if len(bySubj) != 2 { // rid-8, rid-6 survive in the ring
		t.Fatalf("subject filter kept %d, want 2", len(bySubj))
	}
	if got := rr.Snapshot(ReqFilter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit 2 returned %d", len(got))
	}
	minDur := rr.Snapshot(ReqFilter{MinDur: 8 * time.Millisecond})
	for _, r := range minDur {
		if time.Duration(r.TotalNs) < 8*time.Millisecond {
			t.Fatalf("min-duration filter leaked %v total", time.Duration(r.TotalNs))
		}
	}
}

func TestRequestConcurrentSpans(t *testing.T) {
	// The batcher goroutine adds phases while the handler goroutine may be
	// finishing — exercised under -race in check.sh.
	rr := NewRequests(32)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		req := rr.Begin(fmt.Sprintf("r%d", i), "m")
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				req.StepTo(PhaseBatch, "", 1, 1)
			}
		}()
		go func() {
			defer wg.Done()
			req.Step(PhaseQueue, "", 0)
			req.Finish("")
		}()
	}
	wg.Wait()
	if got := len(rr.Snapshot(ReqFilter{})); got != 16 {
		t.Fatalf("ring has %d records, want 16", got)
	}
}

func TestWriteStitchedChromeTrace(t *testing.T) {
	procs := []Process{
		{Name: "router", Spans: []ReqSpan{
			{Name: PhaseAttemptRemote, Detail: "replica-a ok", Start: 1e6, Dur: 5e6, Arg: 1},
			{Name: PhaseRespond, Start: 6e6, Dur: 1e6},
		}},
		{Name: "replica replica-a", Spans: []ReqSpan{
			{Name: PhaseQueue, Start: 1.2e6, Dur: 0.1e6},
			{Name: PhaseKernel, Detail: "csr-omp", Start: 1.4e6, Dur: 4e6, Arg: 64},
		}},
	}
	var buf bytes.Buffer
	if err := WriteStitchedChromeTrace(&buf, procs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v", err)
	}
	names := map[int]string{}
	spansPerPid := map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				names[ev.Pid], _ = ev.Args["name"].(string)
			}
		case "X", "i":
			spansPerPid[ev.Pid]++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("bad event %+v", ev)
			}
		default:
			t.Fatalf("unknown phase type %q", ev.Ph)
		}
	}
	if names[1] != "router" || names[2] != "replica replica-a" {
		t.Fatalf("process rows = %v, want router on pid 1, replica on pid 2", names)
	}
	if spansPerPid[1] != 2 || spansPerPid[2] != 2 {
		t.Fatalf("span counts per pid = %v", spansPerPid)
	}
}
