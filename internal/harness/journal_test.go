package harness

import (
	"bytes"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalTornTailRepair pins the crash-mid-append story end to end: a
// journal whose file ends in a partial line reopens cleanly (torn bytes
// truncated, warning logged), new appends land after the intact records —
// never fused onto the torn one — and a subsequent read sees a clean
// stream.
func TestJournalTornTailRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{ID: "a", Status: StatusOK, Kernel: "csr-omp", Matrix: "m1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{ID: "b", Status: StatusFailed, Class: "oom"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail the way SIGKILL mid-write does: half a record, no '\n'.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"c","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume-style read before repair: intact records plus a torn flag.
	recs, torn, err := ReadJournalTorn(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !torn {
		t.Fatalf("pre-repair read: %d records torn=%v, want 2 records torn=true", len(recs), torn)
	}

	// Reopen for appending: the torn bytes must be truncated, with a warning.
	var logBuf bytes.Buffer
	j, err = OpenJournalOpts(path, JournalOpts{Log: slog.New(slog.NewTextHandler(&logBuf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logBuf.String(), "torn trailing record") {
		t.Fatalf("repair logged no warning: %q", logBuf.String())
	}
	if err := j.Append(Record{ID: "c", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, torn, err = ReadJournalTorn(path)
	if err != nil || torn {
		t.Fatalf("post-repair read: torn=%v err=%v, want a clean stream", torn, err)
	}
	if len(recs) != 3 || recs[0].ID != "a" || recs[1].ID != "b" || recs[2].ID != "c" {
		t.Fatalf("post-repair records = %+v, want [a b c]", recs)
	}
}

// TestRepairTornTailLongLine exercises the chunked walk-back: a torn tail
// longer than one 4096-byte read chunk still truncates back to the last
// newline.
func TestRepairTornTailLongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	intact := `{"id":"a","status":"ok"}` + "\n"
	torn := `{"id":"b","error":"` + strings.Repeat("x", 10000) // no close, no newline
	if err := os.WriteFile(path, []byte(intact+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := RepairTornTail(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if dropped != int64(len(torn)) {
		t.Fatalf("dropped %d bytes, want %d", dropped, len(torn))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != intact {
		t.Fatalf("repaired file = %q, want just the intact record", data)
	}
}

// TestRepairTornTailNoNewlineAtAll covers a file that is one giant torn
// line (crash during the very first append): everything is dropped.
func TestRepairTornTailNoNewlineAtAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(`{"id":"only","st`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := RepairTornTail(f)
	f.Close()
	if err != nil || dropped != 16 {
		t.Fatalf("dropped=%d err=%v, want 16/nil", dropped, err)
	}
	if info, _ := os.Stat(path); info.Size() != 0 {
		t.Fatalf("file still holds %d bytes after full-tear repair", info.Size())
	}
}

// TestJournalMidFileCorruptionFails pins that tolerance is strictly for the
// FINAL line: garbage in the middle of the stream is an error, not a skip.
func TestJournalMidFileCorruptionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"id":"a","status":"ok"}` + "\n" + `not json at all` + "\n" + `{"id":"b","status":"ok"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadJournalTorn(path); err == nil {
		t.Fatal("mid-file corruption read back as a valid journal")
	}
}

// TestJournalNoSyncStillDurableOnClose pins the opt-out: NoSync appends
// still land in the file (the kernel holds them) and read back fine.
func TestJournalNoSyncStillDurableOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalOpts(path, JournalOpts{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if j.log.sync {
		t.Fatal("NoSync journal still has per-append fsync armed")
	}
	if err := j.Append(Record{ID: "a", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(path)
	if err != nil || len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("recs=%+v err=%v, want the one appended record", recs, err)
	}
	// Default open fsyncs.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.log.sync {
		t.Fatal("default journal does not fsync appends")
	}
}

// TestInjectorFireFaults pins the durability fault kinds the serve chaos
// suite is built on: FaultErr carries its cause, FaultTorn wraps
// ErrTornWrite, counts are spent per firing, and a nil injector is inert.
func TestInjectorFireFaults(t *testing.T) {
	var nilInj *Injector
	if err := nilInj.Fire("anything", PointWALAppend); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}

	cause := errors.New("no space left on device")
	in := NewInjector(1,
		Fault{Point: PointWALAppend, Kind: FaultErr, Err: cause},
		Fault{Point: PointWALSync, Kind: FaultErr, Count: 2},
		Fault{Point: PointSnapshot, Kind: FaultTorn, Run: "snap"},
	)

	err := in.Fire("wal|abc", PointWALAppend)
	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("FaultErr lost its cause: %v", err)
	}
	if err := in.Fire("wal|abc", PointWALAppend); err != nil {
		t.Fatalf("single-count fault fired twice: %v", err)
	}

	for i := 0; i < 2; i++ {
		if err := in.Fire("wal|abc", PointWALSync); err == nil {
			t.Fatalf("firing %d of a Count=2 fault did nothing", i+1)
		}
	}
	if err := in.Fire("wal|abc", PointWALSync); err != nil {
		t.Fatalf("Count=2 fault fired a third time: %v", err)
	}

	// Run-substring matching gates the torn fault.
	if err := in.Fire("other", PointSnapshot); err != nil {
		t.Fatalf("fault fired for a non-matching run: %v", err)
	}
	err = in.Fire("snapshot", PointSnapshot)
	if err == nil || !errors.Is(err, ErrTornWrite) {
		t.Fatalf("FaultTorn does not wrap ErrTornWrite: %v", err)
	}

	// Point names used in chaos-test output must stay stable.
	for p, want := range map[FaultPoint]string{
		PointWALAppend: "wal-append",
		PointWALSync:   "wal-sync",
		PointSnapshot:  "snapshot",
	} {
		if p.String() != want {
			t.Fatalf("FaultPoint %d renders %q, want %q", p, p.String(), want)
		}
	}
}

// TestJournalTornAppendRollsBack: an append that fails after persisting half
// its line (torn write) must leave no partial line behind — the next append
// would fuse onto it and ReadLines would reject the whole journal as
// mid-file corruption, failing -resume. The failed record is refused, the
// good ones around it read back clean.
func TestJournalTornAppendRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	inject := NewInjector(1, Fault{Run: "torn", Point: PointWALAppend, Kind: FaultTorn})
	j, err := OpenJournalOpts(path, JournalOpts{Injector: inject})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{ID: "before", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{ID: "torn", Status: StatusOK}); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn append returned %v, want ErrTornWrite", err)
	}
	if err := j.Append(Record{ID: "after", Status: StatusOK}); err != nil {
		t.Fatalf("append after a torn one: %v", err)
	}
	recs, torn, err := ReadJournalTorn(path)
	if err != nil || torn {
		t.Fatalf("journal after a rolled-back torn append: torn=%v err=%v", torn, err)
	}
	if len(recs) != 2 || recs[0].ID != "before" || recs[1].ID != "after" {
		t.Fatalf("journal holds %+v, want exactly the two good records", recs)
	}
}
