package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/matrix"
	"repro/internal/tune"
)

// The registry write-ahead log: one fsynced JSONL record per successful
// registration, appended before the registration is acked. A record carries
// everything recovery needs to rebuild the matrix and its serving plan
// without redoing registration work — the content hash, dims, the canonical
// triplets (or the generator spec that deterministically regenerates them),
// and the advisor report. Prepared formats are deliberately NOT persisted:
// they are pure functions of the canonical COO and re-prepare lazily on
// first use, which keeps recovery fast and the WAL small.
//
// Each record carries a CRC32 over its own JSON (computed with the crc
// field zeroed), so corruption is detected per record, and the file is
// plain JSONL, so a crash can at worst tear the final line — the same
// append/flush idiom internal/harness/journal.go established, hardened
// with per-append fsync. While the process is live the log additionally
// guarantees it always ends on a record boundary: a failed or short write
// is rolled back to the record's start offset, so a later append can never
// fuse onto a partial line.

// maxWALRecordBytes bounds one sealed WAL record on both sides of the log:
// append refuses anything larger, and readWAL sizes its scanner to it, so
// any record that lands in the log is guaranteed replayable. It is derived
// from the register endpoint's body cap: JSON-encoding a triplet upload
// inflates the MTX text by a small constant factor (indices and
// shortest-round-trip floats roughly match their text form, plus field
// names and commas), so 8× the body cap clears the largest record
// sealRecord can produce with room to spare. A var only so tests can lower
// it.
var maxWALRecordBytes = 8 * maxRegisterBody

// walKindProfile marks a tuner-profile record; the empty kind is a
// registration (the only kind PR-6 logs wrote, so old logs replay as-is).
const walKindProfile = "profile"

// walKindMutate is one acked mutation batch: the canonicalized ops (Mut*
// arrays) plus the epoch the batch produced. Replay applies batches in
// epoch order on top of the matrix's registration record; a batch at or
// below the current epoch is a duplicate and skips.
const walKindMutate = "mutate"

// walKindCompact marks a completed compaction: every mutation through
// Epoch was merged into a new canonical base whose content hash is
// BaseHash. Replay merges the accumulated overlay, verifies the hash,
// and clears the overlay — so recovery never re-applies pre-compaction
// mutation records to the post-compaction base.
const walKindCompact = "compact"

// walRecord is one durable record, and one serialized state transition:
// state.apply (state.go) is what each kind means. Kind "" registers a
// matrix, "mutate" and "compact" journal the mutation write path, and
// "profile" is a promotion — journaled bare by Registry.Promote, or carried
// by a learned tuning profile (Profile set; the tuner restores the newest
// per matrix).
type walRecord struct {
	// Seq is the append sequence number, assigned by the Store; snapshots
	// record the last seq they cover so replay knows where the tail starts.
	Seq uint64 `json:"seq"`
	// Kind discriminates record types; "" is a registration.
	Kind string `json:"kind,omitempty"`
	// ID is the content-addressed matrix ID (recovery re-verifies it).
	ID   string `json:"id"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	// Name/Scale is a generator spec: recovery regenerates the matrix
	// deterministically instead of storing its triplets.
	Name  string  `json:"name,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// RowIdx/ColIdx/Vals are the canonical row-major triplets for
	// matrices with no generator spec (MTX uploads).
	RowIdx []int32   `json:"row_idx,omitempty"`
	ColIdx []int32   `json:"col_idx,omitempty"`
	Vals   []float64 `json:"vals,omitempty"`
	// The serving plan — recovery reuses it rather than re-running the
	// advisor. Variant/PlanVersion track tuner promotions; both empty on
	// pre-tuner records (replay then derives the variant from the plan).
	Format      string         `json:"format"`
	Schedule    string         `json:"schedule"`
	Block       int            `json:"block"`
	Variant     string         `json:"variant,omitempty"`
	PlanVersion int64          `json:"plan_version,omitempty"`
	Report      advisor.Report `json:"report"`
	// Profile is the tuner's learned state for Kind "profile" records.
	Profile *tune.Profile `json:"profile,omitempty"`
	// Epoch is the mutation epoch: for "mutate" records, the epoch the
	// batch produced; for "compact" records, the boundary merged through;
	// for registration records written after mutations (snapshot dumps,
	// cluster imports), the matrix's current epoch.
	Epoch int64 `json:"epoch,omitempty"`
	// CompactEpoch, on mutated registration records, is how far the base
	// has been compacted (the recovered state's compactedThrough).
	CompactEpoch int64 `json:"compact_epoch,omitempty"`
	// BaseHash is the content hash of the current canonical base when it
	// no longer matches ID (the matrix was compacted): "compact" records
	// journal the post-merge hash for verification, and mutated
	// registration records carry it so recovery re-verifies the triplets.
	BaseHash string `json:"base_hash,omitempty"`
	// MutRowIdx/MutColIdx/MutVals/MutDel are overlay ops in canonical
	// order: a "mutate" record's batch, or a mutated registration record's
	// pending overlay.
	MutRowIdx []int32   `json:"mut_row_idx,omitempty"`
	MutColIdx []int32   `json:"mut_col_idx,omitempty"`
	MutVals   []float64 `json:"mut_vals,omitempty"`
	MutDel    []bool    `json:"mut_del,omitempty"`
	// CRC is the IEEE CRC32 of this record's JSON with CRC itself zeroed.
	CRC uint32 `json:"crc"`

	// Live-path attachments — unexported, so they never reach the disk.
	// base is the canonical matrix the record installs (a registration's
	// base, a compaction's merge) when the writer already holds it; replay
	// rebuilds and re-verifies it instead. warm is a kernel already prepared
	// from that base under the plan the record leads to, for transact to
	// install in the prepared-format cache as it publishes.
	base *matrix.COO[float64]
	warm core.Kernel
}

// sealRecord marshals rec with its CRC filled in.
func sealRecord(rec *walRecord) ([]byte, error) {
	rec.CRC = 0
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: wal marshal: %w", err)
	}
	rec.CRC = crc32.ChecksumIEEE(body)
	sealed, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: wal marshal: %w", err)
	}
	return append(sealed, '\n'), nil
}

// verifyRecord checks rec's CRC by re-marshalling with it zeroed. JSON
// encoding of the record struct is deterministic (no maps), so the bytes
// reproduce exactly.
func verifyRecord(rec *walRecord) error {
	want := rec.CRC
	rec.CRC = 0
	body, err := json.Marshal(rec)
	rec.CRC = want
	if err != nil {
		return fmt.Errorf("serve: wal remarshal: %w", err)
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("serve: wal record %d (%s): crc mismatch %08x != %08x",
			rec.Seq, rec.ID, got, want)
	}
	return nil
}

// wal is the append side of the registry log. Sequence numbers are owned by
// the Store (which must keep them consistent with its in-flight set); the
// wal only guarantees durable, boundary-clean writes.
type wal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	bytes  int64
	sync   bool
	inject *harness.Injector
	// damaged poisons the log after a failed rollback left the file ending
	// mid-record: every later append fails rather than fuse onto the
	// partial line. Cleared by a truncate (which rewrites the file) or a
	// reopen (whose RepairTornTail removes the damage).
	damaged error
}

// openWAL opens (creating if needed) the log at path for appending,
// repairing a torn trailing record the same way harness journals do.
func openWAL(path string, fsync bool, inject *harness.Injector) (*wal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open wal: %w", err)
	}
	if _, err := harness.RepairTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: wal %s: %w", path, err)
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: wal seek: %w", err)
	}
	return &wal{f: f, path: path, bytes: size, sync: fsync, inject: inject}, nil
}

// append seals and writes one record (whose Seq the caller assigned) and
// fsyncs it. The record is durable when append returns nil — the invariant
// the register handler relies on to never ack before durability. A failed
// or short write, or a failed fsync, rolls the file back to the record
// boundary so the process can keep serving and the refused record can
// never replay. Fault points: PointWALAppend before the write (FaultErr
// simulates disk full; FaultTorn persists only half the record then fails,
// as a crash mid-write would, before the rollback restores the boundary)
// and PointWALSync before the fsync.
func (w *wal) append(rec *walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.damaged != nil {
		return w.damaged
	}
	data, err := sealRecord(rec)
	if err != nil {
		return err
	}
	if len(data) > maxWALRecordBytes {
		// A record too large for the replay scanner must never reach the
		// file: it would append and ack fine, then be dropped as mid-file
		// corruption (taking every later record with it) on restart.
		return fmt.Errorf("serve: wal append %s: record is %d bytes, beyond the %d replay limit",
			rec.ID, len(data), maxWALRecordBytes)
	}
	start := w.bytes
	if err := w.inject.Fire("wal|"+rec.ID, harness.PointWALAppend); err != nil {
		if errors.Is(err, harness.ErrTornWrite) {
			// Persist a prefix, as a crash mid-write would, then restore the
			// record boundary — the process is still alive, and the next
			// append must not fuse onto the partial line.
			if n, werr := w.f.Write(data[:len(data)/2]); werr == nil {
				w.bytes += int64(n)
				w.f.Sync()
			}
			w.rollback(start)
		}
		return fmt.Errorf("serve: wal append: %w", err)
	}
	n, err := w.f.Write(data)
	w.bytes += int64(n)
	if err != nil || n != len(data) {
		w.rollback(start)
		if err == nil {
			err = io.ErrShortWrite
		}
		return fmt.Errorf("serve: wal append: %w", err)
	}
	if w.sync {
		// A record whose fsync failed is refused, so it must leave the file
		// too: left in place it would replay on the next restart, ahead of
		// (and shadowing) whatever the caller acks at that epoch instead.
		err := w.inject.Fire("wal|"+rec.ID, harness.PointWALSync)
		syncStart := time.Now()
		if err == nil {
			err = w.f.Sync()
		}
		if err != nil {
			w.rollback(start)
			return fmt.Errorf("serve: wal fsync: %w", err)
		}
		obsWALFsyncSeconds.Observe(time.Since(syncStart).Seconds())
	}
	obsWALAppends.Inc()
	obsWALBytes.Set(float64(w.bytes))
	return nil
}

// rollback restores the record boundary after a failed or short write by
// truncating back to the record's start offset. If even that fails, the
// file may end mid-record; the log then poisons itself so later appends
// fail loudly instead of fusing the next record onto the partial line
// (recovery's RepairTornTail clears the damage on reopen).
func (w *wal) rollback(start int64) {
	if err := w.f.Truncate(start); err != nil {
		w.damaged = fmt.Errorf("serve: wal ends mid-record and rollback failed: %w", err)
		return
	}
	w.bytes = start
	obsWALBytes.Set(float64(start))
}

// truncate drops every record a snapshot covers (seq <= upTo). When nothing
// newer landed the file is simply emptied; otherwise the uncovered tail is
// rewritten to a fresh file that is atomically renamed over the log, so the
// WAL shrinks on every successful compaction even under sustained
// registration traffic instead of growing until a quiet window. A crash
// anywhere leaves either the old complete log or the new tail, and both
// replay correctly against the just-published snapshot. A torn or
// unparseable line is never an acked record (append rolls failed writes
// back), so the rewrite drops it — which also clears a damaged log.
func (w *wal) truncate(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var keep []byte
	_, err := harness.ReadLines(w.path, maxWALRecordBytes, func(text []byte) error {
		var head struct {
			Seq uint64 `json:"seq"`
		}
		if json.Unmarshal(text, &head) == nil && head.Seq > upTo {
			keep = append(append(keep, text...), '\n')
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: wal truncate: %w", err)
	}
	if len(keep) == 0 {
		if err := w.f.Truncate(0); err != nil {
			return fmt.Errorf("serve: wal truncate: %w", err)
		}
		if _, err := w.f.Seek(0, 0); err != nil {
			return fmt.Errorf("serve: wal seek: %w", err)
		}
		w.bytes = 0
		w.damaged = nil
		obsWALBytes.Set(0)
		return nil
	}
	tmp := w.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("serve: wal rewrite: %w", err)
	}
	if _, err := tf.Write(keep); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: wal rewrite: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: wal rewrite fsync: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: wal rewrite close: %w", err)
	}
	// Open the append handle on the temp file first, then rename: the
	// handle follows the inode, so there is no window where the log's path
	// exists without a writable handle behind it.
	nf, err := os.OpenFile(tmp, os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: wal reopen: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: wal swap: %w", err)
	}
	w.f.Close()
	w.f = nf
	w.bytes = int64(len(keep))
	w.damaged = nil
	obsWALBytes.Set(float64(w.bytes))
	return syncDir(filepath.Dir(w.path))
}

// size reports the log's current byte length.
func (w *wal) size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// readWAL loads every intact record from path, in file order. A missing
// file is an empty log. A torn or CRC-corrupt final record is skipped (the
// crash window per-append fsync bounds us to); corruption earlier in the
// file stops the read there and returns the intact prefix alongside the
// error, so recovery can keep what provably survived.
func readWAL(path string) (recs []walRecord, torn bool, err error) {
	// The line cap must exceed anything append admits, or an acked record
	// would read back as corruption; append enforces maxWALRecordBytes for
	// exactly this reason.
	torn, err = harness.ReadLines(path, maxWALRecordBytes, func(text []byte) error {
		var rec walRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return err
		}
		if err := verifyRecord(&rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return recs, torn, fmt.Errorf("serve: read wal %w", err)
	}
	return recs, torn, nil
}
