package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/harness"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The stats == metrics suite: each service component (serve and the
// router) is driven through every fact it counts, and its JSON stats are
// held against the series it exports through a name table. The tables live
// here, in the one package that can see both components.

// exposition renders r the way a scrape sees it.
func exposition(tb testing.TB, r *obs.Registry) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// samples parses an exposition back into one value per series, keyed by
// registration name (labels included). A histogram's value is its
// observation count.
func samples(tb testing.TB, r *obs.Registry) map[string]float64 {
	tb.Helper()
	histograms := map[string]bool{}
	out := map[string]float64{}
	for _, line := range strings.Split(exposition(tb, r), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			histograms[f[2]] = f[3] == "histogram"
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			tb.Fatalf("unparseable sample %q: %v", line, err)
		}
		family, labels, labelled := strings.Cut(name, "{")
		if base, ok := strings.CutSuffix(family, "_count"); ok && histograms[base] {
			name = base
			if labelled {
				name += "{" + labels
			}
		} else if histograms[strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum")] {
			continue
		}
		out[name] = v
	}
	return out
}

// row is one line of a component's name table: a numeric field of its JSON
// stats (dotted json names, e.g. "cache.hits") and the series carrying the
// same fact ("a+b" for a field that is the sum of two). An empty series
// marks a field that deliberately has none (configuration, identity,
// control state); an empty field marks a series with no JSON twin (latency
// histograms).
type row struct{ field, series string }

// checkStats holds stats (a struct or pointer to one) against got through
// table, which is all it knows: every numeric field reachable through nested
// structs must have a row and equal its series; every row must name a live
// field; and every sample under prefixes must be named by some row — so a
// new field without a series, or a new series without a field, fails until
// the table says which it is.
func checkStats(tb testing.TB, stats any, got map[string]float64, table []row, prefixes ...string) {
	tb.Helper()
	fields := map[string]float64{}
	flatten(reflect.ValueOf(stats), "", fields)
	named := map[string]bool{}
	rowFor := map[string]row{}
	for _, r := range table {
		for _, s := range strings.Split(r.series, "+") {
			named[s] = true
		}
		if r.field == "" {
			continue
		}
		rowFor[r.field] = r
		if _, ok := fields[r.field]; !ok {
			tb.Errorf("name table row %q: stats has no such numeric field", r.field)
		}
	}
	for field, have := range fields {
		r, ok := rowFor[field]
		if !ok {
			tb.Errorf("stats field %q has no row in the name table", field)
			continue
		}
		if r.series == "" {
			continue
		}
		var want float64
		for _, s := range strings.Split(r.series, "+") {
			v, ok := got[s]
			if !ok {
				tb.Errorf("stats field %q: series %s is not exported", field, s)
			}
			want += v
		}
		if have != want {
			tb.Errorf("stats field %q = %v, series %s = %v", field, have, r.series, want)
		}
	}
	for name := range got {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && !named[name] {
				tb.Errorf("series %s is exported but no name-table row mentions it", name)
			}
		}
	}
}

// flatten collects the numeric fields of v under their dotted json names,
// following nested structs and non-nil pointers; slices and maps are the
// caller's to check element by element.
func flatten(v reflect.Value, prefix string, out map[string]float64) {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		f := v.Field(i)
		switch {
		case f.CanInt():
			out[prefix+name] = float64(f.Int())
		case f.CanUint():
			out[prefix+name] = float64(f.Uint())
		case f.CanFloat():
			out[prefix+name] = f.Float()
		default:
			flatten(f, prefix+name+".", out)
		}
	}
}

// serveTable is the serving layer's name table: every numeric field of
// /v1/stats against the series Server.ExportMetrics gives the same fact.
var serveTable = []row{
	{field: "matrices"}, // registry size; no series
	{"requests", "spmm_serve_requests_total"},
	{"multiplies", "spmm_serve_multiplies_total"},
	{"batches", "spmm_serve_batches_total"},
	{"batched_requests", "spmm_serve_batched_requests_total"},
	{"shed", "spmm_serve_shed_total"},
	{"timeouts", "spmm_serve_timeouts_total"},
	{"in_flight", "spmm_serve_in_flight"},
	{"queued", "spmm_serve_queue_depth"},
	{field: "cache.entries"},
	{"cache.bytes", "spmm_serve_cache_bytes"},
	{field: "cache.capacity_bytes"}, // configuration
	{"cache.hits", "spmm_serve_cache_hits_total"},
	{"cache.misses", "spmm_serve_cache_misses_total"},
	{"cache.prepares", "spmm_serve_cache_prepares_total"},
	{"cache.evictions", "spmm_serve_cache_evictions_total"},
	{"durability.wal_bytes", "spmm_serve_wal_bytes"},
	{field: "durability.last_seq"}, // identity of the newest record
	{"durability.snapshots", "spmm_serve_snapshots_total"},
	{"durability.snapshot_failures", "spmm_serve_snapshot_errors_total"},
	{"durability.recovered", "spmm_serve_recovered_matrices"},
	{"durability.recovery_seconds", "spmm_serve_recovery_seconds"},
	{"delta.mutations", "spmm_delta_mutations_total"},
	{"delta.ops", "spmm_delta_ops_total"},
	{field: "delta.mutated"},
	{"delta.overlay_nnz", "spmm_delta_overlay_nnz"},
	{"delta.compactions", "spmm_delta_compactions_total"},
	{"delta.compaction_errors", "spmm_delta_compaction_errors_total"},
	{series: `spmm_serve_panel_pool_gets_total{result="hit"}`},
	{series: `spmm_serve_panel_pool_gets_total{result="miss"}`},
	{series: "spmm_serve_panel_pool_bytes_recycled_total"},
	{series: "spmm_serve_batch_width"},
	{series: "spmm_serve_batch_wait_seconds"},
	{series: "spmm_serve_request_seconds"},
	{series: `spmm_serve_phase_seconds{phase="queue"}`},
	{series: `spmm_serve_phase_seconds{phase="load"}`},
	{series: `spmm_serve_phase_seconds{phase="prepare"}`},
	{series: `spmm_serve_phase_seconds{phase="batch"}`},
	{series: `spmm_serve_phase_seconds{phase="kernel"}`},
	{series: `spmm_serve_phase_seconds{phase="respond"}`},
	{series: `spmm_serve_phase_seconds{phase="mutate"}`},
	{series: `spmm_serve_phase_seconds{phase="compact"}`},
	{series: "spmm_serve_wal_appends_total"},
	{series: "spmm_serve_wal_append_errors_total"},
	{series: "spmm_serve_wal_fsync_seconds"},
	{series: "spmm_serve_snapshot_seconds"},
	{series: "spmm_delta_overlay_apply_seconds"},
	{series: "spmm_delta_compaction_seconds"},
}

// TestServeStatsAgreeWithMetrics drives one durable server through every
// fact it counts — a recovery, a registration, an eviction, a cache miss
// and hits, a shed, a queue timeout, mutations, a failed and a landed
// snapshot, a forced compaction — and holds /v1/stats against the exported
// series. Both views read the same fields, so
// they agree exactly, not approximately.
func TestServeStatsAgreeWithMetrics(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	up := randomTriplets(64, 48, 400, 1)
	open := func(cfg serve.Config) (*serve.Server, *serve.Client, func()) {
		cfg.Threads, cfg.DataDir = 1, dir
		cfg.CompactRatio, cfg.CompactCost = -1, -1 // compaction is forced below, never background
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, serve.NewClient(ts.URL), func() { ts.Close(); srv.Close() }
	}
	first, c0, closeFirst := open(serve.Config{SnapshotEvery: -1})
	a, err := c0.Register(up)
	if err != nil {
		t.Fatal(err)
	}
	cacheBytes := first.Registry().Stats().Bytes + 64 // room for one such format, not two
	closeFirst()

	srv, client, closeSrv := open(serve.Config{
		MaxInFlight: 1, QueueDepth: 1, CacheBytes: cacheBytes,
		SnapshotEvery: 2, // the first automatic snapshot hits the injected fault, the second lands
		Injector:      harness.NewInjector(1, harness.Fault{Point: harness.PointSnapshot, Kind: harness.FaultErr}),
	})
	defer closeSrv()
	reg := obs.NewRegistry()
	srv.ExportMetrics(reg)
	stats := func() *serve.StatsResponse {
		t.Helper()
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// start issues a multiply against A and returns once it holds the only
	// execution slot, with half its body sent: the handler takes the slot
	// before it reads and keeps it until finish sends the rest.
	b := matrix.NewDenseRand[float64](a.Cols, k, 1)
	var wire bytes.Buffer
	if err := serve.WritePanel(&wire, b, k); err != nil {
		t.Fatal(err)
	}
	type held struct {
		body *io.PipeWriter
		done chan error
	}
	start := func() held {
		pr, pw := io.Pipe()
		h := held{pw, make(chan error, 1)}
		go func() {
			resp, err := http.Post(fmt.Sprintf("%s/v1/matrices/%s/multiply?k=%d", client.Base, a.ID, k), "application/octet-stream", pr)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("held multiply: status %d", resp.StatusCode)
				}
			}
			h.done <- err
		}()
		if _, err := pw.Write(wire.Bytes()[:wire.Len()/2]); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "multiply to take the execution slot", func() bool { return stats().InFlight == 1 })
		return h
	}
	finish := func(h held) {
		t.Helper()
		if _, err := h.body.Write(wire.Bytes()[wire.Len()/2:]); err != nil {
			t.Fatal(err)
		}
		h.body.Close()
		if err := <-h.done; err != nil {
			t.Fatal(err)
		}
	}

	// B's warm prepare evicts nothing (A recovered unprepared); A's first
	// multiply is a miss that evicts B, its second a hit.
	if _, err := client.Register(randomTriplets(64, 48, 400, 2)); err != nil {
		t.Fatal(err)
	}
	finish(start())
	finish(start())

	// Slot held, one request queued: the next is shed.
	holder := start()
	queued := make(chan error, 1)
	go func() {
		_, err := client.Multiply(a.ID, a.Rows, b, k, 10*time.Second)
		queued <- err
	}()
	waitFor(t, "second multiply queued for the slot", func() bool { return stats().Queued == 1 })
	if _, err := client.Multiply(a.ID, a.Rows, b, k, 0); err == nil || !err.(*serve.StatusError).Overloaded() {
		t.Fatalf("third concurrent multiply: want a 429 shed, got %v", err)
	}
	finish(holder)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}

	// Slot held: a queued request's deadline expires first.
	holder = start()
	if _, err := client.Multiply(a.ID, a.Rows, b, k, 20*time.Millisecond); err == nil || err.(*serve.StatusError).Code != http.StatusServiceUnavailable {
		t.Fatalf("queued multiply past its deadline: want 503, got %v", err)
	}
	finish(holder)

	// Mutations: a dirty multiply, a forced compaction, and more batches so an
	// overlay is pending when the views are read. Each is a WAL append; with
	// B's registration the first four trigger both automatic snapshots.
	ops := []serve.MutateOp{{Row: 1, Col: 2, Val: 3.5}, {Row: 7, Col: 7, Val: 1.25}}
	if _, err := client.Mutate(a.ID, ops); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first automatic snapshot to fail", func() bool { return stats().Durability.SnapshotFailures == 1 })
	finish(start())
	if res, err := client.Compact(a.ID); err != nil || !res.Compacted {
		t.Fatalf("forced compaction: %+v, %v", res, err)
	}
	if _, err := client.Mutate(a.ID, ops[:1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second automatic snapshot to land", func() bool { return stats().Durability.Snapshots >= 1 })
	if _, err := client.Mutate(a.ID, ops[1:]); err != nil { // the WAL is non-empty again
		t.Fatal(err)
	}

	st := stats()
	got := samples(t, reg)
	checkStats(t, st, got, serveTable, "spmm_serve_", "spmm_delta_")

	// The scenario must have moved what it claims to, or agreement is 0 == 0.
	d, ca, du := st.Delta, st.Cache, st.Durability
	if st.Shed != 1 || st.Timeouts != 1 || st.Multiplies != 6 || st.Batches != 6 ||
		ca.Misses < 2 || ca.Hits < 4 || ca.Evictions < 1 ||
		du.Recovered != 1 || du.Snapshots < 1 || du.SnapshotFailures != 1 || du.WALBytes == 0 ||
		d == nil || d.Mutations != 3 || d.Ops != 4 || d.Compactions != 1 || d.OverlayNNZ != 2 {
		t.Fatalf("scenario did not exercise every counter: %+v cache=%+v durability=%+v delta=%+v", st, ca, du, d)
	}
}

// clusterTable is the router's name table: every numeric field of
// /v1/cluster against the series ExportMetrics gives the same fact.
var clusterTable = []row{
	{field: "matrices"}, // placement-table size; no series
	{"requests", "spmm_cluster_requests_total"},
	{"moves", "spmm_cluster_moves_total"},
	{"spillovers", "spmm_cluster_spillovers_total"},
	{"failovers", "spmm_cluster_failovers_total"},
	{"ejects", "spmm_cluster_ejects_total"},
	{"readmits", "spmm_cluster_readmits_total"},
	{"replications", "spmm_cluster_replications_total"},
	{"probe_failures", "spmm_cluster_probe_failures_total"},
	{field: "probe_rounds"},            // test synchronization point; no series
	{series: "spmm_cluster_ring_size"}, // len(ring), checked below
}

// replicaTable is one replica's rows, its name the constant label.
func replicaTable(name string) []row {
	label := fmt.Sprintf("{replica=%q}", name)
	return []row{
		{field: "matrices"},
		{field: "in_flight"}, // control state: the spillover load signal
		{"proxied", "spmm_cluster_proxied_total" + label},
		{"errors", "spmm_cluster_proxy_errors_total" + label},
		{field: "failovers"},
		{field: "probe_fails"},
		{field: "since_state_change_sec"},
		{series: "spmm_cluster_proxy_seconds" + label},
	}
}

// TestStatsAgreeWithMetrics drives one router through every fact it counts
// — hot replication, a spillover, a failover off a hung replica, its
// ejection and re-admission on the scripted clock, a join that moves
// matrices, a leave and a rejoin under the same name — and holds /v1/cluster
// against the exported series through clusterTable.
func TestStatsAgreeWithMetrics(t *testing.T) {
	const k = 4
	tc := newTestCluster(t, 2, func(cfg *Config) {
		cfg.ReplicateAfter = 3
		cfg.MaxHolders = 2
		cfg.SpillMargin = 2
		cfg.AttemptTimeout = 2 * time.Second // virtual; fires on Advance
	})
	reg := obs.NewRegistry()
	tc.router.ExportMetrics(reg)

	mats := tc.registerMatrices(8)
	hot := mats[0]
	for i := 0; i < 3; i++ {
		tc.multiplyBoth(hot, k, int64(10+i))
	}
	waitFor(t, "hot matrix to replicate", func() bool { return len(tc.clusterStats().Placements[hot.reg.ID]) == 2 })
	holders := tc.clusterStats().Placements[hot.reg.ID]
	primary, secondary := holders[0], holders[1]
	tc.router.mu.Lock()
	prim := tc.router.replicas[primary]
	tc.router.mu.Unlock()

	// Spillover: synthetic load on the primary.
	prim.inFlight.Add(10)
	if res := tc.multiplyBoth(hot, k, 20); res.Replica != secondary {
		t.Fatalf("loaded primary: served by %s, want spillover to %s", res.Replica, secondary)
	}
	prim.inFlight.Add(-10)

	// Failover: the primary hangs, scripted time passes the attempt timeout.
	tc.replicas[primary].gate.hang()
	b := matrix.NewDenseRand[float64](hot.reg.Cols, k, 30)
	done := make(chan error, 1)
	go func() {
		_, err := tc.client.Multiply(hot.reg.ID, hot.reg.Rows, b, k, 0)
		done <- err
	}()
	waitFor(t, "the multiply to park on the hung primary", func() bool { return prim.inFlight.Load() >= 1 })
	tc.clk.Advance(2 * time.Second)
	if err := <-done; err != nil {
		t.Fatalf("multiply against hung primary surfaced an error: %v", err)
	}
	// Eject (the advance above kicked the first failing probe round), then
	// heal and re-admit.
	waitFor(t, "the hang-window probe round", func() bool { return tc.router.ProbeRounds() >= 1 })
	for round := 0; round < 3 && !tc.router.ReplicaDown(primary); round++ {
		tc.advanceProbe()
	}
	if !tc.router.ReplicaDown(primary) {
		t.Fatalf("prober did not eject hung replica %s", primary)
	}
	tc.replicas[primary].gate.heal()
	tc.advanceProbe()
	if tc.router.ReplicaDown(primary) {
		t.Fatalf("healed replica %s not re-admitted", primary)
	}

	// A join on an exported router names the newcomer's series as it joins;
	// leaving and rejoining under the same name continues them.
	if moved := tc.addReplica("r2").Moved; moved == 0 {
		t.Fatal("join moved no matrix; the scenario needs a non-zero moves counter")
	}
	for i, m := range mats {
		tc.multiplyBoth(m, k, int64(40+i))
	}
	proxied := samples(t, reg)[`spmm_cluster_proxied_total{replica="r2"}`]
	if proxied == 0 {
		t.Fatal("replica joined after ExportMetrics has no proxied series (or served nothing)")
	}
	var left LeaveResponse
	if err := postJSON(tc.front.URL+"/v1/cluster/leave", LeaveRequest{Name: "r2"}, &left); err != nil {
		t.Fatal(err)
	}
	var rejoined JoinResponse
	if err := postJSON(tc.front.URL+"/v1/cluster/join", JoinRequest{Name: "r2", Base: tc.replicas["r2"].base}, &rejoined); err != nil {
		t.Fatal(err)
	}
	if got := samples(t, reg)[`spmm_cluster_proxied_total{replica="r2"}`]; got < proxied {
		t.Fatalf("rejoined replica's proxied series restarted: %v < %v", got, proxied)
	}

	st := tc.clusterStats()
	got := samples(t, reg)
	table := clusterTable
	for _, rep := range st.Replicas {
		rows := replicaTable(rep.Name)
		checkStats(t, rep, got, rows)
		for _, r := range rows {
			if r.series != "" {
				table = append(table, row{series: r.series})
			}
		}
	}
	checkStats(t, st, got, table, "spmm_cluster_")
	if size := got["spmm_cluster_ring_size"]; size != float64(len(st.Ring)) || len(st.Ring) != 3 {
		t.Fatalf("spmm_cluster_ring_size = %v, /v1/cluster ring = %v", size, st.Ring)
	}

	// The scenario must have moved what it claims to, or agreement is 0 == 0.
	if st.Replications < 1 || st.Spillovers < 1 || st.Failovers != 1 || st.Ejects != 1 ||
		st.Readmits != 1 || st.Moves < 1 || st.ProbeFailures < 2 {
		t.Fatalf("scenario did not exercise every counter: %+v", st)
	}
}

// TestMetricsSchemaGolden pins the exposition's contract with dashboards:
// the family names, types and help strings of every serving, delta and
// cluster series. The golden file was generated by the commit before the
// metrics became per-instance fields (from its process-wide registry, after
// building one durable server and one router over replica "a"), so a match
// proves the instance export is the same schema — every later signal gets
// its golden line here, and a retired one (the online tuner's spmm_tune_*)
// loses it.
func TestMetricsSchemaGolden(t *testing.T) {
	srv, err := serve.New(serve.Config{Threads: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rt, err := New(Config{
		Replicas: []JoinRequest{{Name: "a", Base: "http://127.0.0.1:1"}},
		Clock:    clock.NewFake(), // no probe ever fires
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reg := obs.NewRegistry()
	srv.ExportMetrics(reg)
	rt.ExportMetrics(reg)

	want, err := os.ReadFile("testdata/metrics_schema.golden")
	if err != nil {
		t.Fatal(err)
	}
	// The sorted `# HELP` / `# TYPE` lines, without the values.
	var schema []string
	for _, line := range strings.Split(exposition(t, reg), "\n") {
		if strings.HasPrefix(line, "# ") {
			schema = append(schema, line)
		}
	}
	sort.Strings(schema)
	got := strings.Join(schema, "\n") + "\n"
	if got != string(want) {
		t.Fatalf("exposition schema drifted from testdata/metrics_schema.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
