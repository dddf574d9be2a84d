package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/advisor"
	"repro/internal/delta"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/tune"
)

// Tests of the per-matrix state machine: replayed state equals live state
// (the two bugs the single apply fixed), one decoder for mutation arrays at
// all three entry points, the journal's bytes pinned, and data directories
// written by the previous implementation still recovering.

// stateOf returns the matrix's current state.
func stateOf(t *testing.T, s *Server, id string) *state {
	t.Helper()
	m, ok := s.Registry().Get(id)
	if !ok {
		t.Fatalf("matrix %s is not registered", id)
	}
	return m.st.Load()
}

// sameState reports the first field in which two states differ, "" if none:
// plan (version included), epoch, compaction boundary, both hashes, base
// triplets and overlay arrays.
func sameState(a, b *state) string {
	switch {
	case a.plan != b.plan:
		return "plan"
	case a.epoch != b.epoch:
		return "epoch"
	case a.compactedThrough != b.compactedThrough:
		return "compactedThrough"
	case a.baseHash != b.baseHash:
		return "baseHash"
	case a.hash != b.hash:
		return "hash"
	case a.base.Rows != b.base.Rows || a.base.Cols != b.base.Cols ||
		!slices.Equal(a.base.RowIdx, b.base.RowIdx) || !slices.Equal(a.base.ColIdx, b.base.ColIdx) ||
		!slices.Equal(a.base.Vals, b.base.Vals):
		return "base"
	case a.overlay.NNZ() != b.overlay.NNZ():
		return "overlay size"
	case a.overlay != nil && (!slices.Equal(a.overlay.RowIdx, b.overlay.RowIdx) ||
		!slices.Equal(a.overlay.ColIdx, b.overlay.ColIdx) ||
		!slices.Equal(a.overlay.Vals, b.overlay.Vals) || !slices.Equal(a.overlay.Del, b.overlay.Del)):
		return "overlay"
	}
	return ""
}

// TestPromotionReplaysWithoutTuner: a promotion is a journaled transition
// of the matrix, not a property of whichever tuner is configured at the next
// start — the promoted plan comes back from the WAL tail and from a
// snapshot alike, on a server with no tuner at all.
func TestPromotionReplaysWithoutTuner(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		dir := t.TempDir()
		s1, c1, teardown1 := durableServer(t, dir, nil)
		reg := registerGen(t, c1, "dw4096", 0.02)
		tgt := altVariant(reg.Variant)
		plan, err := s1.Registry().Promote(context.Background(), reg.ID, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if snapshot {
			if err := s1.store.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		want := stateOf(t, s1, reg.ID)
		teardown1()

		s2, c2, teardown2 := durableServer(t, dir, nil)
		if diff := sameState(stateOf(t, s2, reg.ID), want); diff != "" {
			t.Fatalf("snapshot=%v: recovered state differs from the live one in %s", snapshot, diff)
		}
		info := mutateInfo(t, c2, reg.ID)
		if info.Variant != tgt || info.PlanVersion != plan.Version {
			t.Fatalf("snapshot=%v: recovered %s v%d, want promoted %s v%d",
				snapshot, info.Variant, info.PlanVersion, tgt, plan.Version)
		}
		res, err := c2.Multiply(reg.ID, reg.Rows, matrix.NewDenseRand[float64](reg.Cols, 4, 3), 4, 0)
		if err != nil || res.Variant != tgt {
			t.Fatalf("snapshot=%v: recovered server served %v (err %v), want %s", snapshot, res, err, tgt)
		}
		teardown2()
	}
}

// TestCompactionPlanVersionSurvivesRestart: a compaction bumps the plan
// version on replay exactly as it did live, so GET /v1/matrices reports the
// same plan_version before and after a crash.
func TestCompactionPlanVersionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, c1, teardown1 := durableServer(t, dir, nil)
	reg, local := registerSmall(t, c1, 90, 70, 400, 5)
	plan := buildDeltaPlan(t, local, 2, 8, 6)
	for _, ops := range plan.batches {
		if _, err := c1.Mutate(reg.ID, ops); err != nil {
			t.Fatal(err)
		}
	}
	if cres, err := c1.Compact(reg.ID); err != nil || !cres.Compacted {
		t.Fatalf("compact: %+v, %v", cres, err)
	}
	before := mutateInfo(t, c1, reg.ID)
	if before.PlanVersion != reg.PlanVersion+1 {
		t.Fatalf("live compaction left plan version %d, want %d", before.PlanVersion, reg.PlanVersion+1)
	}
	want := stateOf(t, s1, reg.ID)
	teardown1()

	s2, c2, _ := durableServer(t, dir, nil)
	after := mutateInfo(t, c2, reg.ID)
	if after.PlanVersion != before.PlanVersion || after.Epoch != before.Epoch || after.Hash != before.Hash {
		t.Fatalf("recovered %+v, want the pre-crash %+v", after, before)
	}
	if diff := sameState(stateOf(t, s2, reg.ID), want); diff != "" {
		t.Fatalf("recovered state differs from the live one in %s", diff)
	}
}

// TestRefusedFsyncNeverReplays is the ack-after-durable contract for
// mutations under an injected fsync error: the batch is refused with a 503,
// the epoch does not advance — and the refused record leaves the log, or the
// next restart replays it ahead of the batch that was acked at that epoch
// instead.
func TestRefusedFsyncNeverReplays(t *testing.T) {
	dir := t.TempDir()
	inject := harness.NewInjector(1)
	_, c1, teardown1 := durableServer(t, dir, inject)
	reg, local := registerSmall(t, c1, 60, 60, 300, 9)
	plan := buildDeltaPlan(t, local, 1, 6, 4)
	refused := []MutateOp{{Row: 1, Col: 1, Val: 42}}

	inject.Arm(harness.Fault{Point: harness.PointWALSync, Kind: harness.FaultErr})
	_, err := c1.Mutate(reg.ID, refused)
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("mutate with failing fsync: %v, want a 503", err)
	}
	if info := mutateInfo(t, c1, reg.ID); info.Epoch != 0 {
		t.Fatalf("un-durable mutation advanced the epoch: %+v", info)
	}
	acked, err := c1.Mutate(reg.ID, plan.batches[0])
	if err != nil || acked.Epoch != 1 {
		t.Fatalf("mutation after the refused one: %+v, %v", acked, err)
	}
	teardown1()

	_, c2, _ := durableServer(t, dir, nil)
	bm := matrix.NewDenseRand[float64](reg.Cols, 4, 8)
	res, err := c2.Multiply(reg.ID, reg.Rows, bm, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := res.C.MaxAbsDiff(multiplyRef(t, plan.states[1], bm, 4)); res.Epoch != 1 || diff != 0 {
		t.Fatalf("restart serves epoch %d, %g away from the acked batch — the refused one replayed", res.Epoch, diff)
	}
}

// warnings collects a server's warning log lines.
type warnings struct{ buf bytes.Buffer }

func (w *warnings) logger() *slog.Logger {
	return slog.New(slog.NewTextHandler(&w.buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// TestRaggedMutationArrays drives one table of malformed mutation arrays
// through every place such arrays enter: a WAL mutate record, a mutated
// registration record, and an import request body. Each is refused by the
// same decoder — recovery skips the record with its usual warning instead of
// indexing out of range, the handler answers 400.
func TestRaggedMutationArrays(t *testing.T) {
	const n = 3
	cases := map[string]func(rows, cols *[]int32, vals *[]float64, del *[]bool){
		"short rows": func(rows, _ *[]int32, _ *[]float64, _ *[]bool) { *rows = (*rows)[:n-1] },
		"short cols": func(_, cols *[]int32, _ *[]float64, _ *[]bool) { *cols = (*cols)[:n-1] },
		"short vals": func(_, _ *[]int32, vals *[]float64, _ *[]bool) { *vals = (*vals)[:n-1] },
		"short del":  func(_, _ *[]int32, _ *[]float64, del *[]bool) { *del = (*del)[:n-1] },
		"long del":   func(_, _ *[]int32, _ *[]float64, del *[]bool) { *del = append(*del, true) },
	}
	for name, cut := range cases {
		rows, cols := []int32{0, 1, 2}, []int32{2, 1, 0}
		vals, del := []float64{1, 2, 3}, []bool{false, true, false}
		cut(&rows, &cols, &vals, &del)

		if _, err := deltaOps(rows, cols, vals, del); err == nil {
			t.Fatalf("%s: decoder accepted ragged arrays", name)
		}

		// A data dir holding one good registration, then the two bad records.
		dir := t.TempDir()
		_, c1, teardown1 := durableServer(t, dir, nil)
		reg, local := registerSmall(t, c1, 8, 8, 20, 2)
		teardown1()
		badMutate := &walRecord{Seq: 100, Kind: walKindMutate, ID: reg.ID, Epoch: 1,
			MutRowIdx: rows, MutColIdx: cols, MutVals: vals, MutDel: del}
		badReg := registration("feedfacefeedface", RegisterSource{}, reg.Advice, Plan{Format: "csr", Block: 4, Version: 1}, local, reg.ID)
		badReg.base, badReg.Seq, badReg.Epoch = nil, 101, 1
		badReg.MutRowIdx, badReg.MutColIdx, badReg.MutVals, badReg.MutDel = rows, cols, vals, del
		f, err := os.OpenFile(filepath.Join(dir, "wal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []*walRecord{badMutate, badReg} {
			line, err := sealRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(line); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()

		var warn warnings
		_, c2, teardown2 := newTestServer(t, Config{Threads: 1, DataDir: dir, SnapshotEvery: -1, Log: warn.logger()})
		if ids := listIDs(t, c2); len(ids) != 1 || !ids[reg.ID] {
			t.Fatalf("%s: recovery holds %v, want exactly %s", name, ids, reg.ID)
		}
		if info := mutateInfo(t, c2, reg.ID); info.Epoch != 0 {
			t.Fatalf("%s: ragged mutate record advanced the epoch: %+v", name, info)
		}
		if got := strings.Count(warn.buf.String(), "skipping unrecoverable record"); got != 2 {
			t.Fatalf("%s: %d skip warnings, want one per bad record:\n%s", name, got, warn.buf.String())
		}

		// The import body.
		_, err = c2.Register(RegisterRequest{
			ServeID: reg.ID, Rows: local.Rows, Cols: local.Cols,
			RowIdx: local.RowIdx, ColIdx: local.ColIdx, Vals: local.Vals,
			Epoch: 1, OvRowIdx: rows, OvColIdx: cols, OvVals: vals, OvDel: del,
		})
		if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest {
			t.Fatalf("%s: import with ragged overlay arrays: %v, want a 400", name, err)
		}
		teardown2()
	}
}

// TestInfoIsTheListRow: GET /v1/matrices/{id} answers the same row the
// listing holds, and 404s an unknown ID.
func TestInfoIsTheListRow(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Threads: 1})
	reg, _ := registerSmall(t, c, 30, 30, 100, 1)
	if _, err := c.Mutate(reg.ID, []MutateOp{{Row: 2, Col: 3, Val: 1.5}}); err != nil {
		t.Fatal(err)
	}
	var info MatrixInfo
	if err := c.getJSON("/v1/matrices/"+reg.ID, &info); err != nil {
		t.Fatal(err)
	}
	if want := mutateInfo(t, c, reg.ID); info != want || info.Epoch != 1 {
		t.Fatalf("info %+v, list row %+v", info, want)
	}
	err := c.getJSON("/v1/matrices/deadbeefdeadbeef", &info)
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("info for an unknown matrix: %v, want 404", err)
	}
}

// TestWALRecordGolden pins the journal's bytes: one sealed record of each
// kind, exactly as the previous implementation wrote them. A change here is
// a format change — old data directories stop recovering.
func TestWALRecordGolden(t *testing.T) {
	recs := map[string]*walRecord{
		"register": {Seq: 1, ID: "00c0ffee00c0ffee", Rows: 4, Cols: 3, Name: "dw4096", Scale: 0.5,
			Format: "csr", Schedule: "balanced", Block: 4, Variant: "csr/opts-balanced-pool", PlanVersion: 1},
		"register-mutated": {Seq: 2, ID: "00c0ffee00c0ffee", Rows: 2, Cols: 2,
			RowIdx: []int32{0, 1}, ColIdx: []int32{1, 0}, Vals: []float64{1.5, -2},
			Format: "ell", Schedule: "static", Block: 4, Variant: "ell/opts-pool", PlanVersion: 3,
			Epoch: 7, CompactEpoch: 5, BaseHash: "0123456789abcdef",
			MutRowIdx: []int32{1}, MutColIdx: []int32{1}, MutVals: []float64{0}, MutDel: []bool{true}},
		"mutate": {Seq: 3, Kind: walKindMutate, ID: "00c0ffee00c0ffee", Epoch: 8,
			MutRowIdx: []int32{0, 1}, MutColIdx: []int32{0, 1}, MutVals: []float64{0.25, 0}, MutDel: []bool{false, true}},
		"compact": {Seq: 4, Kind: walKindCompact, ID: "00c0ffee00c0ffee", Epoch: 8, BaseHash: "fedcba9876543210"},
		"profile": {Seq: 5, Kind: walKindProfile, ID: "00c0ffee00c0ffee", Profile: &tune.Profile{
			ID: "00c0ffee00c0ffee", Incumbent: "ell/opts-pool", PlanVersion: 2, Trials: 9,
			Arms:    []tune.ArmProfile{{Variant: "ell/opts-pool", Samples: 3, P50Micros: 1.5, Window: []float64{1, 1.5, 2}}},
			History: []tune.Promotion{{From: "csr/opts-pool", To: "ell/opts-pool", FromP50Micros: 3, ToP50Micros: 1.5, Trials: 9, UnixNanos: 1}}}},
		"promote": {Seq: 6, Kind: walKindProfile, ID: "00c0ffee00c0ffee", Variant: "coo/opts-pool", PlanVersion: 4},
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "wal_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, name := range []string{"register", "register-mutated", "mutate", "compact", "profile", "promote"} {
		line, err := sealRecord(recs[name])
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
	}
	if !bytes.Equal(got.Bytes(), golden) {
		t.Fatalf("sealed records changed:\n%s\nwant testdata/wal_golden.jsonl:\n%s", got.Bytes(), golden)
	}
}

// TestParentDataDirRecovers opens data directories written by the previous
// implementation (two separate write/replay code paths; the fixtures under
// testdata/parent-* were produced by its own mutation and tuned-promotion
// flows, with want.json the listing it served before shutting down) and
// requires the same epochs, hashes, variants and plan versions — with no
// tuner configured, which the old replay needed to adopt a promotion.
func TestParentDataDirRecovers(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "parent-*"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no parent fixtures: %v", err)
	}
	for _, fix := range fixtures {
		dir := t.TempDir()
		for _, name := range []string{"wal.jsonl", "snapshot.dat"} {
			data, err := os.ReadFile(filepath.Join(fix, name))
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var want []MatrixInfo
		data, err := os.ReadFile(filepath.Join(fix, "want.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		var warn warnings
		_, c, teardown := newTestServer(t, Config{Threads: 1, DataDir: dir, SnapshotEvery: -1, Log: warn.logger()})
		got, err := c.Matrices()
		if err != nil {
			t.Fatal(err)
		}
		if warn.buf.Len() > 0 {
			t.Fatalf("%s: recovery warned:\n%s", fix, warn.buf.String())
		}
		for i := range got {
			got[i].Prepared = false
		}
		for i := range want {
			want[i].Prepared = false
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: recovered\n%+v\nwant what the writer served\n%+v", fix, got, want)
		}
		teardown()
	}
}

// TestLegacyVariantRecoversPooled: a promotion journaled under a retired
// spelling — the goroutine-per-call "csr/opts-balanced" — serves, and after
// a restart recovers, as the pooled point that now runs it; a registration
// record naming a retired spelling recovers the same way.
func TestLegacyVariantRecoversPooled(t *testing.T) {
	cfg := Config{Threads: 2, DataDir: t.TempDir(), NoFsync: true, SnapshotEvery: -1}
	s1, c1, teardown1 := newTestServer(t, cfg)
	reg, _ := registerSmall(t, c1, 80, 60, 400, 11)
	plan, err := s1.Registry().Promote(context.Background(), reg.ID, "csr/opts-balanced")
	if err != nil || plan.Variant != "csr/opts-balanced-pool" || plan.Schedule != kernels.ScheduleBalanced {
		t.Fatalf("live promote to csr/opts-balanced: plan %+v, %v; want csr/opts-balanced-pool", plan, err)
	}
	teardown1()

	_, c2, teardown2 := newTestServer(t, cfg)
	defer teardown2()
	got, err := c2.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Variant != "csr/opts-balanced-pool" || got[0].PlanVersion != 2 {
		t.Fatalf("recovered %+v, want csr/opts-balanced-pool at plan version 2", got)
	}

	rec := &walRecord{Format: "coo", Schedule: "static", Variant: "coo/opts-static", PlanVersion: 1}
	if v := rec.plan().Variant; v != "coo/opts-pool" {
		t.Fatalf("registration naming coo/opts-static recovers as %q, want coo/opts-pool", v)
	}
}

// applyAll folds records through apply from nothing, failing the test on
// the first error.
func applyAll(t *testing.T, recs ...*walRecord) *state {
	t.Helper()
	var st *state
	for _, rec := range recs {
		next, err := st.apply(rec)
		if err != nil {
			t.Fatalf("apply %q record: %v", rec.Kind, err)
		}
		st = next
	}
	return st
}

// TestApplyPreconditions pins the transition table's refusals and skips
// directly on apply, where no server is needed to reach them.
func TestApplyPreconditions(t *testing.T) {
	base := testMatrix(t, 12, 12, 0.2, 1)
	Canonicalize(base)
	id := ContentID(base)
	plan := Plan{Format: "csr", Block: 4, Version: 1, Variant: "csr/opts-pool", Pooled: true}
	reg := registration(id, RegisterSource{}, advisor.Report{}, plan, base, id)
	reshaped := testMatrix(t, 5, 5, 0.4, 2)
	Canonicalize(reshaped)
	regReshaped := registration(id, RegisterSource{}, advisor.Report{}, plan, reshaped, ContentID(reshaped))
	regReshaped.Epoch = 9
	mutate := func(epoch int64) *walRecord {
		rec := &walRecord{Kind: walKindMutate, ID: id, Epoch: epoch}
		rec.MutRowIdx, rec.MutColIdx, rec.MutVals, rec.MutDel = opArrays([]delta.Op{{Row: 1, Col: 2, Val: float64(epoch)}})
		return rec
	}
	st := applyAll(t, reg, mutate(1), mutate(2))

	for name, rec := range map[string]*walRecord{
		"mutation gap":              mutate(4),
		"compact off the epoch":     {Kind: walKindCompact, ID: id, Epoch: 1},
		"compact hash mismatch":     {Kind: walKindCompact, ID: id, Epoch: 2, BaseHash: "0000000000000000"},
		"unservable promotion":      {Kind: walKindProfile, ID: id, Variant: "no-such/variant", PlanVersion: 2},
		"unknown kind":              {Kind: "reticulate", ID: id},
		"out-of-range mutation":     {Kind: walKindMutate, ID: id, Epoch: 3, MutRowIdx: []int32{99}, MutColIdx: []int32{0}, MutVals: []float64{1}},
		"registration of new shape": regReshaped,
	} {
		if next, err := st.apply(rec); err == nil {
			t.Errorf("%s: applied to %+v, want a refusal", name, next)
		}
	}
	if _, err := (*state)(nil).apply(mutate(1)); err == nil {
		t.Error("mutation of an unknown matrix applied")
	}

	// At or below what the state reflects: skipped, the state itself back.
	compacted := applyAll(t, reg, mutate(1), mutate(2), &walRecord{Kind: walKindCompact, ID: id, Epoch: 2})
	if compacted.plan.Version != 2 || compacted.compactedThrough != 2 || compacted.overlay != nil {
		t.Fatalf("compaction produced %+v", compacted)
	}
	for name, rec := range map[string]*walRecord{
		"replayed mutation":      mutate(2),
		"replayed compaction":    {Kind: walKindCompact, ID: id, Epoch: 2},
		"replayed promotion":     {Kind: walKindProfile, ID: id, Variant: "ell/opts-pool", PlanVersion: 2},
		"older registration":     reg,
		"profile at the plan":    {Kind: walKindProfile, ID: id, Profile: &tune.Profile{Incumbent: "ell/opts-pool", PlanVersion: 1}},
		"same-epoch re-register": func() *walRecord { r := *reg; r.Epoch = 2; return &r }(),
	} {
		if next, err := compacted.apply(rec); err != nil || next != compacted {
			t.Errorf("%s: got %+v, %v; want the state unchanged", name, next, err)
		}
	}
}

// TestTransactChurn puts every kind of writer on one matrix at once — a
// mutation stream, a promoter cycling variants, a compactor — beside
// readers, under -race. Whatever state a reader captures must be whole: the
// kernel matches the plan, and kernel + overlay produce the bits of exactly
// the epoch the state names. The journal the writers interleaved into must
// then replay to the state they left.
func TestTransactChurn(t *testing.T) {
	const k, batches = 3, 120
	dir := t.TempDir()
	cfg := Config{Threads: 2, DataDir: dir, NoFsync: true, SnapshotEvery: 40, CompactRatio: -1, CompactCost: -1}
	s1, c1, teardown1 := newTestServer(t, cfg)
	reg, local := registerSmall(t, c1, 80, 60, 400, 11)
	plan := buildDeltaPlan(t, local, batches, 3, 12)
	r := s1.Registry()
	ctx := context.Background()

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(3)
	go func() { // mutator
		defer writers.Done()
		for b, ops := range plan.batches {
			dops := make([]delta.Op, len(ops))
			for i, op := range ops {
				dops[i] = delta.Op{Row: op.Row, Col: op.Col, Val: op.Val, Del: op.Del}
			}
			if st, err := r.Mutate(reg.ID, dops); err != nil || st.epoch != int64(b+1) {
				t.Errorf("mutate batch %d: %+v, %v", b+1, st, err)
				return
			}
		}
	}()
	go func() { // promoter
		defer writers.Done()
		for i, v := range []string{"ell/opts-pool", "csr/opts-balanced-pool", "coo/opts-pool", "sellcs/opts-pool", "csr/opts-pool"} {
			if _, err := r.Promote(ctx, reg.ID, v); err != nil {
				t.Errorf("promotion %d to %s: %v", i, v, err)
				return
			}
		}
	}()
	go func() { // compactor
		defer writers.Done()
		for i := 0; i < 10; i++ {
			if _, err := r.Compact(reg.ID); err != nil {
				t.Errorf("compaction %d: %v", i, err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sv, _, err := r.Prepared(ctx, reg.ID)
				if err != nil || sv.Kernel.Format() != sv.Plan.Format {
					t.Errorf("prepared: plan %+v, err %v", sv.Plan, err)
					return
				}
				b := matrix.NewDenseRand[float64](reg.Cols, k, int64(100*w+i))
				c := matrix.NewDense[float64](reg.Rows, k)
				if err := sv.Kernel.Calculate(b, c, s1.params(sv.Plan, k)); err != nil {
					t.Error(err)
					return
				}
				sv.Overlay.Apply(c, b, k)
				if diff, _ := c.MaxAbsDiff(multiplyRef(t, plan.states[sv.Epoch], b, k)); diff != 0 {
					t.Errorf("state at epoch %d serves bits %g away from that epoch's content", sv.Epoch, diff)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	want := stateOf(t, s1, reg.ID)
	if want.epoch != batches || want.plan.Variant != "csr/opts-pool" {
		t.Fatalf("final state %+v", want)
	}
	teardown1()

	s2, _, _ := newTestServer(t, cfg)
	if diff := sameState(stateOf(t, s2, reg.ID), want); diff != "" {
		t.Fatalf("the interleaved journal replays to a state differing in %s", diff)
	}
}
