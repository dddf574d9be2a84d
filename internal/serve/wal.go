package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/matrix"
	"repro/internal/obs"
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
// plain JSONL, so a crash can at worst tear the final line. The write
// itself — per-append fsync, and the guarantee that a live log always ends
// on a record boundary — is harness.Log, shared with campaign journals.

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

// wal is the append side of the registry log: records sealed here, written
// through the suite's one JSONL Log (which owns the boundary-clean durable
// write, its rollback and the fault points). Sequence numbers are owned by
// the Store, which must keep them consistent with its in-flight set.
type wal struct {
	log *harness.Log

	appends      obs.Counter
	fsyncSeconds obs.Histogram
}

// openWAL opens (creating if needed) the log at path for appending,
// repairing a torn trailing record the same way harness journals do.
func openWAL(path string, fsync bool, inject *harness.Injector) (*wal, error) {
	l, _, err := harness.OpenLog(path, fsync, inject)
	if err != nil {
		return nil, fmt.Errorf("serve: wal %w", err)
	}
	return &wal{log: l}, nil
}

// append seals and writes one record (whose Seq the caller assigned) and
// fsyncs it. The record is durable when append returns nil — the invariant
// the register handler relies on to never ack before durability; a refused
// record never stays in the file (harness.Log.Append), so it can never
// replay.
func (w *wal) append(rec *walRecord) error {
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
	fsync, err := w.log.Append("wal|"+rec.ID, data)
	if err != nil {
		return fmt.Errorf("serve: wal %w", err)
	}
	if fsync > 0 {
		w.fsyncSeconds.Observe(fsync.Seconds())
	}
	w.appends.Inc()
	return nil
}

// truncate drops every record a snapshot covers (seq <= upTo), keeping the
// uncovered tail, so the WAL shrinks on every successful compaction even
// under sustained registration traffic instead of growing until a quiet
// window. Either the old complete log or the new tail survives a crash, and
// both replay correctly against the just-published snapshot.
func (w *wal) truncate(upTo uint64) error {
	err := w.log.Rewrite(maxWALRecordBytes, func(text []byte) bool {
		var head struct {
			Seq uint64 `json:"seq"`
		}
		return json.Unmarshal(text, &head) == nil && head.Seq > upTo
	})
	if err != nil {
		return fmt.Errorf("serve: wal truncate: %w", err)
	}
	return nil
}

func (w *wal) size() int64 { return w.log.Size() }

func (w *wal) close() error { return w.log.Close() }

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
