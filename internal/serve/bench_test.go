package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/tune"
)

// benchServer builds a warmed server + client for the serving-path
// benchmarks: matrix registered, format prepared, so the measured loop is
// pure steady-state (admission → cache hit → dispatch → panel write).
func benchServer(b *testing.B, cfg Config) (*Server, *Client, *RegisterResponse, func()) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	c := NewClient(ts.URL)
	c.HTTP = &http.Client{Transport: tr}
	reg, err := c.Register(RegisterRequest{Name: "dw4096", Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	return s, c, reg, func() {
		tr.CloseIdleConnections()
		ts.Close()
		s.Close()
	}
}

// BenchmarkServeCachedMultiply is the single-client round-trip latency of a
// cached multiply: HTTP overhead + panel codec + one kernel dispatch, zero
// preparation. `go run ./benchmark -workload serve-small` measures the same
// round trip end to end.
func BenchmarkServeCachedMultiply(b *testing.B) {
	const k = 32
	_, client, reg, done := benchServer(b, Config{BatchWindow: 0})
	defer done()
	panel := matrix.NewDenseRand[float64](reg.Cols, k, 1)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.Multiply(reg.ID, reg.Rows, panel, k, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("benchmark multiply missed the prepared-format cache")
		}
	}
}

// BenchmarkServeUnbatched is concurrent throughput with coalescing off:
// every request pays its own kernel launch.
func BenchmarkServeUnbatched(b *testing.B) {
	benchConcurrent(b, 0)
}

// BenchmarkServeBatched is the same load with batching on (BatchWindow
// 500µs): requests that arrive behind an in-flight dispatch stack into the
// next one. Comparing against BenchmarkServeUnbatched prices the coalescing
// machinery; the reported width (requests per dispatch) rises with -cpu as
// more callers queue than one dispatch absorbs.
func BenchmarkServeBatched(b *testing.B) {
	benchConcurrent(b, 500*time.Microsecond)
}

// BenchmarkTunedMultiply prices the auto-tuner on the serving path:
// steady-state cached multiplies with tuning off (advisor's static pick)
// versus on (5% shadow-measurement duty, post-exploration). The tuned
// number carries both the tuner's off-critical-path overhead and whatever
// promotion it found during warm-up.
func BenchmarkTunedMultiply(b *testing.B) {
	const k = 32
	for _, mode := range []struct {
		name string
		tc   *tune.Config
	}{
		{"advisor", nil},
		{"tuned", &tune.Config{Duty: 0.05, MinSamples: 8}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{BatchWindow: 0}
			if mode.tc != nil {
				tc := *mode.tc
				cfg.Tune = &tc
			}
			s, client, reg, done := benchServer(b, cfg)
			defer done()
			panel := matrix.NewDenseRand[float64](reg.Cols, k, 1)
			// Warm to steady state: format resident, and with tuning on the
			// exploration phase mostly behind us before the clock starts.
			for i := 0; i < 200; i++ {
				if _, err := client.Multiply(reg.ID, reg.Rows, panel, k, 0); err != nil {
					b.Fatal(err)
				}
			}
			if s.Tuner() != nil {
				s.Tuner().Flush()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Multiply(reg.ID, reg.Rows, panel, k, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppend prices the durability tax on registration: seal (two
// JSON marshals + CRC32), write, fsync — per record, on a generator-spec
// record (the common case, a few hundred bytes). The fsync dominates; the
// NoFsync variant isolates the CPU cost of sealing.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []struct {
		name  string
		fsync bool
	}{{"fsync", true}, {"nosync", false}} {
		b.Run(mode.name, func(b *testing.B) {
			w, err := openWAL(b.TempDir()+"/wal.jsonl", mode.fsync, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer w.close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := &walRecord{
					Seq: uint64(i + 1),
					ID:  "benchbenchbench0", Rows: 8192, Cols: 8192,
					Name: "dw4096", Scale: 1,
					Format: "csr", Schedule: "static", Block: 4,
				}
				if err := w.append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegister prices one registration of the serve-heavy workload's
// matrix, nd24k@0.05, as a register request pays it: generate
// (Materialize), then canonicalize, hash, extract the advisor's features
// and install (RegisterSourced) into a fresh registry.
func BenchmarkRegister(b *testing.B) {
	req := RegisterRequest{Name: "nd24k", Scale: 0.05}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Materialize(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, existed, err := NewRegistry(0, 2).RegisterSourced(m, RegisterSource{Name: req.Name, Scale: req.Scale}); err != nil || existed {
			b.Fatalf("existed=%v err=%v", existed, err)
		}
	}
}

// BenchmarkContentID prices hashing nd24k@0.05's canonical triplets.
func BenchmarkContentID(b *testing.B) {
	m, err := Materialize(RegisterRequest{Name: "nd24k", Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	Canonicalize(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ContentID(m)
	}
}

// BenchmarkRequestTraceOverhead prices the per-request tracing
// instrumentation exactly as the multiply handler runs it: begin, queue
// phase, prepare phase, batcher fan-out (batch + kernel), respond, finish,
// and (enabled only) the X-Spmm-Timing render. The disabled variant is the
// hot path every untraced deployment pays and must stay at 0 allocs/op —
// TestRequestsDisabledZeroAlloc (internal/trace) pins it.
func BenchmarkRequestTraceOverhead(b *testing.B) {
	run := func(b *testing.B, rr *trace.Requests) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := rr.Begin("bench-rid", "bench-matrix")
			req.Step(trace.PhaseQueue, "", 0)
			req.Step(trace.PhasePrepare, "hit", 0)
			at := req.Now()
			req.StepTo(trace.PhaseBatch, "csr", at, 1)
			req.StepTo(trace.PhaseKernel, "csr-omp", at+5000, 32)
			if rr.Enabled() {
				snap := req.Snapshot()
				_ = FormatTiming(snap, trace.PhaseRespond, snap.TotalNs-req.Pos())
			}
			req.Step(trace.PhaseRespond, "", 0)
			req.Finish("")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, trace.NewRequests(512)) })
}

func benchConcurrent(b *testing.B, window time.Duration) {
	const k = 32
	srv, client, reg, done := benchServer(b, Config{BatchWindow: window, MaxBatchK: 4096})
	defer done()

	requests, batches := srv.batchedRequests.Value(), srv.batches.Value()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		panel := matrix.NewDenseRand[float64](reg.Cols, k, 1)
		for pb.Next() {
			if _, err := client.Multiply(reg.ID, reg.Rows, panel, k, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(srv.batchedRequests.Value()-requests)/float64(srv.batches.Value()-batches), "width")
}
