package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/matrix"
)

// The chaos suite for the durability layer: every test drives the real WAL
// and snapshot files in a temp dir, with faults injected through the
// harness' deterministic injector — torn writes, fsync failures, disk
// full, crash-at-point during snapshot — and proves the recovery contract:
// a registration that was acked survives any crash; a registration that
// was not made durable is never acked.

// durableServer builds a server backed by dir.
func durableServer(t *testing.T, dir string, inject *harness.Injector) (*Server, *Client, func()) {
	t.Helper()
	return newTestServer(t, Config{
		Threads:       1,
		DataDir:       dir,
		SnapshotEvery: -1, // tests trigger snapshot compaction explicitly
		CompactRatio:  -1, // overlay compaction is forced, never background —
		CompactCost:   -1, // the chaos tests pin exact epoch/hash states
		Injector:      inject,
	})
}

// registerGen registers a generator-spec matrix and returns the response.
func registerGen(t *testing.T, c *Client, name string, scale float64) *RegisterResponse {
	t.Helper()
	reg, err := c.Register(RegisterRequest{Name: name, Scale: scale})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return reg
}

// listIDs fetches the registry listing as a set of content hashes.
func listIDs(t *testing.T, c *Client) map[string]bool {
	t.Helper()
	infos, err := c.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, info := range infos {
		ids[info.ID] = true
	}
	return ids
}

// TestRecoverAcrossRestart is the core durability property over the real
// HTTP surface: register (generator spec AND raw MTX upload), stop the
// server, start a fresh one on the same data dir — every matrix is back
// with the same content hash and serving plan, and a multiply returns
// bitwise-identical results to the same-format serial kernel.
func TestRecoverAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const k = 4

	// MTX upload: a small matrix with no generator spec, so the WAL must
	// carry its canonical triplets.
	mtx := "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.0\n1 3 -1.5\n2 2 4.25\n3 1 0.125\n"

	srv1, c1, teardown1 := durableServer(t, dir, nil)
	regGen := registerGen(t, c1, "dw4096", 0.02)
	regMTX, err := c1.Register(RegisterRequest{MTX: mtx})
	if err != nil {
		t.Fatal(err)
	}
	if regGen.Existed || regMTX.Existed {
		t.Fatal("fresh registrations reported existed")
	}
	_ = srv1
	teardown1()

	srv2, c2, _ := durableServer(t, dir, nil)
	ids := listIDs(t, c2)
	if !ids[regGen.ID] || !ids[regMTX.ID] {
		t.Fatalf("restart lost registrations: have %v, want %s and %s", ids, regGen.ID, regMTX.ID)
	}
	stats, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Durability.Enabled || stats.Durability.Recovered != 2 {
		t.Fatalf("durability stats after restart: %+v", stats.Durability)
	}

	// The recovered serving plan must match what was acked.
	m, ok := srv2.Registry().Get(regGen.ID)
	if !ok {
		t.Fatalf("recovered registry misses %s", regGen.ID)
	}
	plan := m.Plan()
	if plan.Format != regGen.Format || plan.Schedule.String() != regGen.Schedule || plan.Block != regGen.Block {
		t.Fatalf("recovered plan (%s/%s/%d) != acked plan (%s/%s/%d)",
			plan.Format, plan.Schedule, plan.Block, regGen.Format, regGen.Schedule, regGen.Block)
	}
	if plan.Variant != regGen.Variant || plan.Version != regGen.PlanVersion {
		t.Fatalf("recovered variant %s v%d != acked %s v%d",
			plan.Variant, plan.Version, regGen.Variant, regGen.PlanVersion)
	}

	// Re-registering the same inputs must dedup onto the recovered entries.
	if again := registerGen(t, c2, "dw4096", 0.02); !again.Existed || again.ID != regGen.ID {
		t.Fatalf("re-register after restart: existed=%v id=%s, want existed=true id=%s",
			again.Existed, again.ID, regGen.ID)
	}

	// Multiply on the recovered matrix: bitwise vs the serial reference
	// (also proves lazy re-preparation works).
	ref, refParams := serialReference(t, regGen, k)
	b := matrix.NewDenseRand[float64](regGen.Cols, k, 7)
	res, err := c2.Multiply(regGen.ID, regGen.Rows, b, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	refC := matrix.NewDense[float64](regGen.Rows, k)
	if err := ref.Calculate(b, refC, refParams); err != nil {
		t.Fatal(err)
	}
	if diff, _ := res.C.MaxAbsDiff(refC); diff != 0 {
		t.Fatalf("recovered multiply differs from serial %s by %g", regGen.Format, diff)
	}
}

// TestTornWALTailSkipped crashes mid-append by construction: a valid WAL
// plus a half-written final record. Recovery keeps every intact record,
// skips the torn tail, and the reopened WAL appends cleanly after repair.
func TestTornWALTailSkipped(t *testing.T) {
	dir := t.TempDir()

	_, c1, teardown1 := durableServer(t, dir, nil)
	reg := registerGen(t, c1, "dw4096", 0.02)
	teardown1()

	// Tear the tail: append half of a fake record, no newline — what a
	// kill mid-write leaves behind.
	walPath := filepath.Join(dir, "wal.jsonl")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":999,"id":"deadbeef","rows":3,`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, c2, teardown2 := durableServer(t, dir, nil)
	ids := listIDs(t, c2)
	if !ids[reg.ID] {
		t.Fatalf("torn tail destroyed intact record %s", reg.ID)
	}
	if len(ids) != 1 {
		t.Fatalf("torn record leaked into the registry: %v", ids)
	}
	// The repaired WAL must accept appends (and survive another restart).
	reg2 := registerGen(t, c2, "dw4096", 0.05)
	teardown2()

	_, c3, _ := durableServer(t, dir, nil)
	ids = listIDs(t, c3)
	if !ids[reg.ID] || !ids[reg2.ID] {
		t.Fatalf("post-repair append lost records: %v", ids)
	}
}

// TestCorruptWALRecordCRC flips payload bytes inside a sealed record (still
// valid JSON, wrong content): the CRC must catch it.
func TestCorruptWALRecordCRC(t *testing.T) {
	rec := &walRecord{ID: "abc", Rows: 2, Cols: 2, Format: "csr", Schedule: "static", Block: 4}
	data, err := sealRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyRecord(rec); err != nil {
		t.Fatalf("freshly sealed record fails its own CRC: %v", err)
	}
	// Bit-flip the rows field through a JSON-preserving edit.
	munged := strings.Replace(string(data), `"rows":2`, `"rows":3`, 1)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.jsonl")
	if err := os.WriteFile(walPath, []byte(munged), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := readWAL(walPath)
	if err != nil || !torn || len(recs) != 0 {
		t.Fatalf("corrupt final record: recs=%d torn=%v err=%v, want 0/true/nil", len(recs), torn, err)
	}
}

// TestCorruptSnapshotFallsBackToWAL corrupts the snapshot body (CRC
// mismatch) while the WAL still holds everything: recovery must log-and-
// ignore the snapshot and replay the full WAL.
func TestCorruptSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()

	srv, c1, teardown1 := durableServer(t, dir, nil)
	reg1 := registerGen(t, c1, "dw4096", 0.02)
	reg2 := registerGen(t, c1, "dw4096", 0.05)

	// Write a snapshot WITHOUT truncating the WAL, so the WAL remains a
	// complete fallback, then corrupt the snapshot's body.
	snap := &snapshot{Version: 1, LastSeq: 0, Records: srv.Registry().dumpRecords()}
	if err := writeSnapshot(dir, snap, nil); err != nil {
		t.Fatal(err)
	}
	teardown1()

	snapPath := filepath.Join(dir, "snapshot.dat")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a body byte; header CRC now mismatches
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(dir); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("loadSnapshot on corrupt file: %v, want ErrCorruptSnapshot", err)
	}

	_, c2, _ := durableServer(t, dir, nil)
	ids := listIDs(t, c2)
	if !ids[reg1.ID] || !ids[reg2.ID] {
		t.Fatalf("corrupt snapshot lost WAL-covered records: %v", ids)
	}
}

// TestSnapshotCompactionTruncatesWAL proves the compaction cycle: snapshot
// lands, WAL empties, and a restart recovers everything from the snapshot
// alone — then keeps accepting appends.
func TestSnapshotCompactionTruncatesWAL(t *testing.T) {
	dir := t.TempDir()

	srv, c1, teardown1 := durableServer(t, dir, nil)
	reg1 := registerGen(t, c1, "dw4096", 0.02)
	reg2 := registerGen(t, c1, "dw4096", 0.05)
	if err := srv.store.Compact(); err != nil {
		t.Fatal(err)
	}
	st := srv.store.Stats()
	if st.Snapshots != 1 || st.WALBytes != 0 {
		t.Fatalf("after compaction: snapshots=%d wal_bytes=%d, want 1/0", st.Snapshots, st.WALBytes)
	}
	teardown1()

	_, c2, teardown2 := durableServer(t, dir, nil)
	ids := listIDs(t, c2)
	if !ids[reg1.ID] || !ids[reg2.ID] {
		t.Fatalf("snapshot-only recovery lost records: %v", ids)
	}
	reg3 := registerGen(t, c2, "shallow_water1", 0.02)
	teardown2()

	_, c3, _ := durableServer(t, dir, nil)
	ids = listIDs(t, c3)
	if !ids[reg1.ID] || !ids[reg2.ID] || !ids[reg3.ID] {
		t.Fatalf("snapshot + WAL tail recovery lost records: %v", ids)
	}
}

// TestAutoSnapshotTriggers proves the background compactor fires on the
// SnapshotEvery threshold without an explicit Compact call.
func TestAutoSnapshotTriggers(t *testing.T) {
	dir := t.TempDir()
	srv, c, _ := newTestServer(t, Config{
		Threads:       1,
		DataDir:       dir,
		SnapshotEvery: 2,
	})
	registerGen(t, c, "dw4096", 0.02)
	registerGen(t, c, "dw4096", 0.05)
	// The second append crosses the threshold; compaction runs in the
	// background — join it through the store.
	if err := srv.store.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := srv.store.Stats(); st.Snapshots < 1 {
		t.Fatalf("no snapshot after %d registrations with SnapshotEvery=2", 2)
	}
}

// TestFsyncFailureNeverAcks is the ack-after-durable contract under an
// injected fsync error: the registration must fail with 503, the matrix
// must not be listed, and a restart must not resurrect it.
func TestFsyncFailureNeverAcks(t *testing.T) {
	dir := t.TempDir()
	inject := harness.NewInjector(1, harness.Fault{
		Point: harness.PointWALSync, Kind: harness.FaultErr,
		Err: errors.New("fsync: input/output error"),
	})
	_, c1, teardown1 := durableServer(t, dir, inject)

	_, err := c1.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("register with failing fsync: %v, want a 503", err)
	}
	if ids := listIDs(t, c1); len(ids) != 0 {
		t.Fatalf("un-durable registration is visible: %v", ids)
	}
	// The fault was single-shot: the retry path works.
	reg := registerGen(t, c1, "dw4096", 0.02)
	if reg.Existed {
		t.Fatal("failed registration left state behind (existed=true on retry)")
	}
	teardown1()

	_, c2, _ := durableServer(t, dir, nil)
	ids := listIDs(t, c2)
	if !ids[reg.ID] || len(ids) != 1 {
		t.Fatalf("restart after fsync fault: %v, want exactly %s", ids, reg.ID)
	}
}

// TestDiskFullAtAppend injects ENOSPC-style failure at the write itself.
func TestDiskFullAtAppend(t *testing.T) {
	dir := t.TempDir()
	inject := harness.NewInjector(1, harness.Fault{
		Point: harness.PointWALAppend, Kind: harness.FaultErr,
		Err: errors.New("write: no space left on device"),
	})
	_, c, _ := durableServer(t, dir, inject)
	_, err := c.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("register on a full disk: %v, want a 503", err)
	}
	if !strings.Contains(se.Message, "no space left") {
		t.Fatalf("503 hides the disk-full cause: %q", se.Message)
	}
	if ids := listIDs(t, c); len(ids) != 0 {
		t.Fatalf("disk-full registration is visible: %v", ids)
	}
}

// TestTornWALWriteCrash injects a torn write — half the record hits the
// disk, then the write fails. The registration is not acked, and because
// the process is still alive the log rolls back to the record boundary:
// the very next append in the SAME process must land cleanly instead of
// fusing onto the partial line (which would make the fused line
// unparseable and drop the acked record on the next restart).
func TestTornWALWriteCrash(t *testing.T) {
	dir := t.TempDir()
	inject := harness.NewInjector(1, harness.Fault{
		Point: harness.PointWALAppend, Kind: harness.FaultTorn,
	})
	_, c1, teardown1 := durableServer(t, dir, inject)
	_, err := c1.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("torn-write register: %v, want a 503", err)
	}
	if ids := listIDs(t, c1); len(ids) != 0 {
		t.Fatalf("torn write acked a registration: %v", ids)
	}
	// Same process, after the rollback: this append must not fuse.
	reg := registerGen(t, c1, "dw4096", 0.02)
	teardown1()

	_, c2, teardown2 := durableServer(t, dir, nil)
	ids := listIDs(t, c2)
	if !ids[reg.ID] || len(ids) != 1 {
		t.Fatalf("append after in-process torn-write rollback did not survive restart: %v, want exactly %s", ids, reg.ID)
	}
	reg2 := registerGen(t, c2, "dw4096", 0.05)
	teardown2()

	_, c3, _ := durableServer(t, dir, nil)
	if ids := listIDs(t, c3); !ids[reg.ID] || !ids[reg2.ID] {
		t.Fatalf("recovery after torn-write rollback lost records: %v", ids)
	}
}

// TestSnapshotCarriesUncommittedAppend pins the append→insert window the
// compactor must bridge: a record whose WAL append succeeded but whose
// registry insert has not happened yet (commit not called) is invisible to
// the registry dump — a compaction running in that window must carry the
// record into the snapshot itself, or truncation erases the only durable
// copy of an about-to-be-acked registration.
func TestSnapshotCarriesUncommittedAppend(t *testing.T) {
	dir := t.TempDir()
	st, recs, err := OpenStore(dir, StoreOpts{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh store recovered %d records", len(recs))
	}
	// The registry insert has not happened yet: the dump sees nothing.
	st.dump = func() []walRecord { return nil }
	rec := &walRecord{ID: "feedfacefeedface", Rows: 2, Cols: 2,
		Format: "csr", Schedule: "static", Block: 4}
	commit, err := st.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction fires inside the window.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	commit()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := loadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || len(snap.Records) != 1 || snap.Records[0].ID != rec.ID {
		t.Fatalf("compaction during the append→insert window dropped the record: %+v", snap)
	}
	st2, recs, err := OpenStore(dir, StoreOpts{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(recs) != 1 || recs[0].ID != rec.ID {
		t.Fatalf("restart after mid-window compaction lost the record: %+v", recs)
	}
}

// TestWALPartialTruncate pins compaction under traffic: truncating up to a
// covered seq rewrites the log down to just the uncovered tail instead of
// skipping truncation entirely, so the WAL shrinks on every snapshot even
// when appends keep landing mid-compaction.
func TestWALPartialTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := openWAL(path, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(seq uint64) *walRecord {
		return &walRecord{Seq: seq, ID: fmt.Sprintf("matrix%010d", seq),
			Rows: 2, Cols: 2, Format: "csr", Schedule: "static", Block: 4}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := w.append(rec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.truncate(2); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := readWAL(path)
	if err != nil || torn {
		t.Fatalf("read after partial truncate: torn=%v err=%v", torn, err)
	}
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("partial truncate kept %+v, want exactly seq 3", recs)
	}
	// The swapped-in file must keep accepting (and persisting) appends.
	if err := w.append(rec(4)); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err = readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 3 || recs[1].Seq != 4 {
		t.Fatalf("append after partial truncate: %+v, want seqs 3,4", recs)
	}
}

// TestWALRejectsOversizedRecord: a record whose sealed form exceeds the
// replay limit must be refused at append time — before it is acked — since
// appending it would succeed and then read back as mid-file corruption on
// the next restart, dropping it and every record after it.
func TestWALRejectsOversizedRecord(t *testing.T) {
	old := maxWALRecordBytes
	maxWALRecordBytes = 4096
	defer func() { maxWALRecordBytes = old }()

	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := openWAL(path, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	big := &walRecord{Seq: 1, ID: "toolarge", Rows: 64, Cols: 64,
		Vals: make([]float64, 4096), Format: "csr", Schedule: "static", Block: 4}
	if err := w.append(big); err == nil {
		t.Fatal("record beyond the replay limit was appended; a restart would drop it as corruption")
	}
	if w.size() != 0 {
		t.Fatalf("rejected record left %d bytes in the log", w.size())
	}
	// The log stays usable for records the scanner can replay.
	small := &walRecord{Seq: 2, ID: "small", Rows: 2, Cols: 2,
		Format: "csr", Schedule: "static", Block: 4}
	if err := w.append(small); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := readWAL(path)
	if err != nil || torn || len(recs) != 1 || recs[0].ID != "small" {
		t.Fatalf("log after oversize rejection: recs=%+v torn=%v err=%v", recs, torn, err)
	}
}

// TestCrashDuringSnapshotKeepsWAL injects a failure mid-snapshot-write
// (crash-at-point): the temp file is abandoned, the previous snapshot (if
// any) stays intact, the WAL is NOT truncated, and recovery loses nothing.
func TestCrashDuringSnapshotKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	inject := harness.NewInjector(1, harness.Fault{
		Point: harness.PointSnapshot, Kind: harness.FaultErr,
		Err: errors.New("write: no space left on device"),
	})
	srv, c1, teardown1 := durableServer(t, dir, inject)
	reg1 := registerGen(t, c1, "dw4096", 0.02)
	reg2 := registerGen(t, c1, "dw4096", 0.05)

	if err := srv.store.Compact(); err == nil {
		t.Fatal("compaction with an injected snapshot fault reported success")
	}
	st := srv.store.Stats()
	if st.Snapshots != 0 || st.SnapshotFailures != 1 {
		t.Fatalf("after failed snapshot: %+v", st)
	}
	if st.WALBytes == 0 {
		t.Fatal("failed snapshot truncated the WAL — acked registrations at risk")
	}
	// The fault is spent: the next compaction must land.
	if err := srv.store.Compact(); err != nil {
		t.Fatalf("second compaction: %v", err)
	}
	teardown1()

	_, c2, _ := durableServer(t, dir, nil)
	ids := listIDs(t, c2)
	if !ids[reg1.ID] || !ids[reg2.ID] {
		t.Fatalf("crash-at-snapshot lost acked registrations: %v", ids)
	}
}

// TestRecoveredMultiplyLazilyPrepares pins the fast-recovery design: a
// restarted server lists recovered matrices as unprepared, and only the
// first multiply pays the preparation.
func TestRecoveredMultiplyLazilyPrepares(t *testing.T) {
	dir := t.TempDir()
	_, c1, teardown1 := durableServer(t, dir, nil)
	reg := registerGen(t, c1, "dw4096", 0.02)
	teardown1()

	_, c2, _ := durableServer(t, dir, nil)
	infos, err := c2.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Prepared {
		t.Fatalf("recovered matrix should be listed unprepared: %+v", infos)
	}
	const k = 4
	b := matrix.NewDenseRand[float64](reg.Cols, k, 3)
	res, err := c2.Multiply(reg.ID, reg.Rows, b, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("first multiply after recovery claims a cache hit")
	}
	res, err = c2.Multiply(reg.ID, reg.Rows, b, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("second multiply after recovery missed the cache")
	}
}

// TestWALRecordGeneratorRoundTrip pins the registration round trip: a record
// written for a state applies back to that state from its bytes alone.
func TestWALRecordGeneratorRoundTrip(t *testing.T) {
	r := NewRegistry(0, 1)
	m := testMatrix(t, 40, 40, 0.05, 3)
	entry, _, err := r.Register(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := recordFor(entry, entry.st.Load())
	if rec.Name != "" || len(rec.Vals) != entry.COO.NNZ() {
		t.Fatalf("spec-less matrix must serialize triplets: %+v", rec)
	}
	rec.base = nil // what is left after a trip through the disk
	got, err := (*state)(nil).apply(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.plan != entry.Plan() || got.hash != entry.ID {
		t.Fatalf("round trip changed the state: %+v != %+v", got, entry.st.Load())
	}
	if _, err := core.New(got.plan.Format+"-omp", core.Options{}); err != nil {
		t.Fatalf("recovered format %q is not servable: %v", got.plan.Format, err)
	}

	// Hash-mismatch detection: corrupt one value.
	rec.Vals[0] += 1
	if _, err := (*state)(nil).apply(rec); err == nil {
		t.Fatal("corrupted triplets recovered without a hash mismatch")
	}
}

// TestLoadSnapshotBoundsDeclaredLength hands loadSnapshot a file whose
// header declares a 192 MiB body but which holds 16 bytes of it: the load
// must fail as corrupt having allocated nothing near the declared size.
func TestLoadSnapshotBoundsDeclaredLength(t *testing.T) {
	dir := t.TempDir()
	file := make([]byte, 20+16)
	copy(file, snapshotMagic)
	binary.LittleEndian.PutUint64(file[12:20], 192<<20)
	if err := os.WriteFile(filepath.Join(dir, "snapshot.dat"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := loadSnapshot(dir)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("loadSnapshot = %v, want ErrCorruptSnapshot", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 36-byte snapshot declaring 192 MiB allocated %d bytes before failing", grew)
	}
}
