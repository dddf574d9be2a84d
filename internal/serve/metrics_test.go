package serve

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The stats == metrics table for this package lives with the other
// components' in internal/cluster/metrics_test.go, which can see all three.

// exposition renders r the way a scrape sees it.
func exposition(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	return text.String()
}

// TestOverlayGaugeIsPerServer: spmm_delta_overlay_nnz used to be registered
// process-wide by every serve.New, the newest server shadowing the others.
// Exported per instance, two servers each report their own pending overlay,
// and exporting both into one registry fails loudly instead of shadowing.
func TestOverlayGaugeIsPerServer(t *testing.T) {
	regs := [2]*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	var servers [2]*Server
	for i, nops := range []int{1, 3} {
		srv, client, _ := newTestServer(t, Config{Threads: 1, CompactRatio: -1, CompactCost: -1})
		srv.ExportMetrics(regs[i])
		servers[i] = srv
		reg, _ := registerSmall(t, client, 32, 32, 100, int64(i+1))
		ops := make([]MutateOp, nops)
		for j := range ops {
			ops[j] = MutateOp{Row: int32(j), Col: int32(j), Val: 1}
		}
		if _, err := client.Mutate(reg.ID, ops); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []string{"\nspmm_delta_overlay_nnz 1\n", "\nspmm_delta_overlay_nnz 3\n"} {
		if got := exposition(t, regs[i]); !strings.Contains(got, want) {
			t.Errorf("server %d does not report its own overlay (want %q):\n%s", i, want, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exporting a second server into an occupied registry did not panic")
		}
		if got := exposition(t, regs[0]); !strings.Contains(got, "\nspmm_delta_overlay_nnz 1\n") {
			t.Fatalf("failed second export disturbed the first server's gauge:\n%s", got)
		}
	}()
	servers[1].ExportMetrics(regs[0])
}

// TestClosedServerIsCollectable: the process-wide registry must hold nothing
// of a server nobody exported there — the old per-New gauge registration
// pinned every server's Registry (matrices and prepared formats included) in
// obs.Default for the life of the process.
func TestClosedServerIsCollectable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		srv, err := New(Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.Registry().Register(testMatrix(t, 32, 32, 0.1, 1)); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(srv.Registry(), func(*Registry) { close(freed) })
		srv.Close()
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("a closed, dropped server's Registry is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestAdmissionZeroAlloc pins the admission gate's per-request cost: an
// uncontended acquire+release is a channel send, a receive and four atomic
// adds — no gauge mirrors, no allocation.
func TestAdmissionZeroAlloc(t *testing.T) {
	a := newAdmission(2, 2)
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		a.release()
	}); n != 0 {
		t.Fatalf("admission acquire+release allocates %v times, want 0", n)
	}
}

// TestPreparedHitZeroAlloc pins the prepared-format cache's steady state: a
// hit on a clean matrix is a lock, an LRU touch and one counter increment.
func TestPreparedHitZeroAlloc(t *testing.T) {
	r := NewRegistry(0, 1)
	m, _, err := r.Register(testMatrix(t, 64, 64, 0.05, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := r.Prepared(ctx, m.ID); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, hit, err := r.Prepared(ctx, m.ID); err != nil || !hit {
			t.Fatalf("steady-state lookup: hit=%v err=%v", hit, err)
		}
	}); n != 0 {
		t.Fatalf("cache hit allocates %v times, want 0", n)
	}
	if st := r.Stats(); st.Hits != 201 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 201/1", st.Hits, st.Misses)
	}
}
