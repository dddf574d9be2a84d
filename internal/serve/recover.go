package serve

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// Store is the registry's durability engine: a fsynced write-ahead log of
// registrations plus a background snapshotter that compacts the log into a
// CRC-guarded snapshot and truncates it. Opening a store IS recovery — it
// replays snapshot + WAL tail and hands the merged record set back so the
// server can rebuild its registry before accepting traffic. Prepared
// formats re-prepare lazily on first use, so recovery cost is parsing, not
// format conversion.
type Store struct {
	dir    string
	wal    *wal
	every  int // appends between automatic snapshots; <= 0 disables
	inject *harness.Injector
	log    *slog.Logger

	// dump serializes the current registry for compaction; the server
	// points it at Registry.dumpRecords.
	dump func() []walRecord

	mu sync.Mutex
	// seq is the last assigned registration sequence number. The store —
	// not the wal — owns it, so the compactor can read the truncation
	// boundary and the in-flight set under one lock.
	seq      uint64
	inflight map[uint64]*inflightRec
	pending  int           // appends since the last snapshot
	snapDone chan struct{} // non-nil while a compaction is running

	// recovered and recoverySeconds describe the startup replay; written
	// once by OpenStore, read-only afterwards.
	recovered       int
	recoverySeconds float64

	appendErrors     obs.Counter
	snapshots        obs.Counter
	snapshotFailures obs.Counter
	snapshotSeconds  obs.Histogram
}

// inflightRec is a registration between sequence assignment and its commit
// callback: it may not be visible to the registry dump yet (the insert
// happens after Append returns), so the compactor carries durable in-flight
// records into snapshots itself — otherwise a compaction landing in that
// window would truncate the only durable copy of an acked registration.
type inflightRec struct {
	rec     *walRecord
	durable bool // WAL write + fsync completed
}

// StoreOpts tunes OpenStore.
type StoreOpts struct {
	// SnapshotEvery compacts the WAL after this many appends (<= 0
	// disables automatic snapshots; the WAL then grows until Compact).
	SnapshotEvery int
	// NoFsync skips the per-append fsync — registrations then survive a
	// process crash but not a machine crash.
	NoFsync bool
	// Injector arms durability fault points (tests only).
	Injector *harness.Injector
	// Log receives recovery and compaction notes; nil discards them.
	Log *slog.Logger
}

// OpenStore opens (creating if needed) the data directory and recovers its
// contents: the snapshot if it verifies, else a warning and full WAL
// replay; then the WAL tail, tolerating a torn final record. The returned
// records are the log in order — snapshot first — for the caller to apply
// one by one; apply is idempotent, so records the snapshot already covers
// (seq <= LastSeq, duplicate registrations, mutations at or below a
// registration's epoch) change nothing.
func OpenStore(dir string, opts StoreOpts) (*Store, []walRecord, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: store dir: %w", err)
	}
	st := &Store{
		dir:      dir,
		every:    opts.SnapshotEvery,
		inject:   opts.Injector,
		log:      opts.Log,
		inflight: map[uint64]*inflightRec{},
	}

	snap, err := loadSnapshot(dir)
	if err != nil {
		// A corrupt snapshot is not fatal: the WAL is the ground truth and
		// is only truncated after a snapshot verifiably landed. Worst case
		// here is re-replaying records the snapshot had compacted.
		st.warn("snapshot unreadable, falling back to full WAL replay", "err", err)
		snap = nil
	}

	walPath := filepath.Join(dir, "wal.jsonl")
	walRecs, torn, err := readWAL(walPath)
	if err != nil {
		// Mid-file corruption: keep the intact prefix, lose the rest. This
		// should be impossible with fsynced appends — surface it loudly.
		st.warn("WAL corrupt beyond its final record; recovering intact prefix",
			"records", len(walRecs), "err", err)
	} else if torn {
		st.warn("WAL ended in a torn record (crash mid-append); skipped it")
	}

	var recs []walRecord
	var nextSeq uint64
	if snap != nil {
		nextSeq = snap.LastSeq
		recs = snap.Records
	}
	recs = append(recs, walRecs...)
	registered := map[string]bool{}
	for i := range recs {
		if recs[i].Seq > nextSeq {
			nextSeq = recs[i].Seq
		}
		if recs[i].Kind == "" {
			registered[recs[i].ID] = true
		}
	}

	st.wal, err = openWAL(walPath, !opts.NoFsync, opts.Injector)
	if err != nil {
		return nil, nil, err
	}
	st.seq = nextSeq
	st.recovered = len(registered) // matrices, not profiles or mutations
	st.recoverySeconds = time.Since(start).Seconds()
	if st.log != nil && (st.recovered > 0 || snap != nil) {
		st.log.Info("registry recovered", "dir", dir, "matrices", st.recovered,
			"from_snapshot", snap != nil, "wal_tail", len(walRecs),
			"seconds", st.recoverySeconds)
	}
	return st, recs, nil
}

// Append durably logs one registration. When it returns a nil error the
// record is fsynced to disk — only then may the registration be acked. The
// returned commit callback MUST be invoked once the record's matrix is
// visible to the registry dump (its insert completed, or a concurrent
// registration of the same matrix already made it visible); until then the
// compactor treats the record as in-flight and carries it into snapshots
// itself.
func (st *Store) Append(rec *walRecord) (commit func(), err error) {
	st.mu.Lock()
	st.seq++
	rec.Seq = st.seq
	st.inflight[rec.Seq] = &inflightRec{rec: rec}
	st.mu.Unlock()

	if err := st.wal.append(rec); err != nil {
		st.mu.Lock()
		delete(st.inflight, rec.Seq)
		st.mu.Unlock()
		st.appendErrors.Inc()
		return nil, err
	}

	st.mu.Lock()
	st.inflight[rec.Seq].durable = true
	st.pending++
	trigger := st.every > 0 && st.pending >= st.every && st.snapDone == nil
	if trigger {
		st.snapDone = make(chan struct{})
		st.pending = 0
	}
	st.mu.Unlock()
	if trigger {
		go st.compact()
	}
	seq := rec.Seq
	return func() {
		st.mu.Lock()
		delete(st.inflight, seq)
		st.mu.Unlock()
	}, nil
}

// Compact synchronously snapshots the registry and truncates the WAL — the
// background trigger's logic, exposed for shutdown and tests. If a
// compaction is already running, Compact joins it (waits for it to finish)
// instead of starting a second.
func (st *Store) Compact() error {
	st.mu.Lock()
	if done := st.snapDone; done != nil {
		st.mu.Unlock()
		<-done
		return nil
	}
	st.snapDone = make(chan struct{})
	st.mu.Unlock()
	return st.compact()
}

// compact writes the snapshot and truncates the covered WAL records. The
// truncation boundary and the in-flight set are read under one lock, so
// every sequence number at or below the boundary is either already visible
// to the registry dump (its commit ran after the insert) or merged in from
// the in-flight set — the snapshot can only over-cover, never under-cover,
// which is what makes truncation safe. An in-flight record whose WAL write
// has not finished instead caps the boundary below its seq: it is not yet
// durable, so it must be neither snapshotted nor have its log record
// truncated.
func (st *Store) compact() error {
	defer func() {
		st.mu.Lock()
		close(st.snapDone)
		st.snapDone = nil
		st.mu.Unlock()
	}()
	st.mu.Lock()
	upTo := st.seq
	var carry []walRecord
	for seq, inf := range st.inflight {
		if !inf.durable {
			if seq <= upTo {
				upTo = seq - 1
			}
			continue
		}
		carry = append(carry, *inf.rec)
	}
	st.mu.Unlock()

	// The in-flight records follow the dump in append order (the inflight
	// map iterates randomly). Whether the dump already reflects one depends
	// on when it ran; replay applies both and skips what is covered, by
	// epoch or plan version.
	sort.Slice(carry, func(i, j int) bool { return carry[i].Seq < carry[j].Seq })
	recs := append(st.dump(), carry...)
	snap := &snapshot{Version: 1, LastSeq: upTo, Records: recs}
	start := time.Now()
	if err := writeSnapshot(st.dir, snap, st.inject); err != nil {
		st.snapshotFailures.Inc()
		st.warn("snapshot failed; WAL keeps growing", "err", err)
		return err
	}
	if err := st.wal.truncate(upTo); err != nil {
		st.warn("WAL truncate after snapshot failed", "err", err)
		return err
	}
	st.snapshots.Inc()
	st.snapshotSeconds.Observe(time.Since(start).Seconds())
	if st.log != nil {
		st.log.Info("registry snapshot", "dir", st.dir,
			"matrices", len(snap.Records), "last_seq", upTo,
			"seconds", time.Since(start).Seconds())
	}
	return nil
}

// Close waits out any in-flight compaction and closes the WAL.
func (st *Store) Close() error {
	for {
		st.mu.Lock()
		done := st.snapDone
		st.mu.Unlock()
		if done == nil {
			break
		}
		<-done
	}
	return st.wal.close()
}

// Stats snapshots the durability counters.
func (st *Store) Stats() DurabilityStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return DurabilityStats{
		Enabled:          true,
		Dir:              st.dir,
		WALBytes:         st.wal.size(),
		LastSeq:          st.seq,
		Snapshots:        st.snapshots.Value(),
		SnapshotFailures: st.snapshotFailures.Value(),
		Recovered:        st.recovered,
		RecoverySeconds:  st.recoverySeconds,
	}
}

func (st *Store) warn(msg string, args ...any) {
	if st.log != nil {
		st.log.Warn(msg, args...)
	}
}
