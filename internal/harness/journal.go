package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"

	"repro/internal/core"
)

// Outcome statuses, shared by journal records and campaign outcomes.
const (
	// StatusOK: the run completed (possibly after retries).
	StatusOK = "ok"
	// StatusDegraded: the run completed on a fallback format after the
	// memory-budget guard rejected the requested one.
	StatusDegraded = "degraded"
	// StatusFailed: all attempts failed; Class and Error say why.
	StatusFailed = "failed"
	// StatusSkipped: the run was already recorded in the journal and was
	// replayed, not re-executed (resume).
	StatusSkipped = "skipped"
)

// Record is one journal line — the durable outcome of one campaign run.
// The journal is append-only JSONL: one self-contained JSON object per
// line, so a crash can at worst tear the final line.
type Record struct {
	// ID is the campaign-unique run identity (kernel|matrix|dims|params).
	ID     string `json:"id"`
	Status string `json:"status"`
	Kernel string `json:"kernel"`
	Matrix string `json:"matrix"`
	// Substituted is the kernel actually run after degradation.
	Substituted string `json:"substituted,omitempty"`
	// Attempts is how many attempts were made (>1 means retries happened).
	Attempts int `json:"attempts"`
	// Class is the failure class for failed runs.
	Class string `json:"class,omitempty"`
	Error string `json:"error,omitempty"`
	// Result is the benchmark outcome for successful runs.
	Result *core.Result `json:"result,omitempty"`
}

// Journal appends campaign records to a JSONL Log, flushing (and by
// default fsyncing) every record so an interrupted campaign loses at most
// the run in flight — and a killed process loses nothing it acked.
type Journal struct {
	log *Log
}

// JournalOpts tunes OpenJournalOpts.
type JournalOpts struct {
	// NoSync skips the per-append fsync. Appends then survive a process
	// crash (the kernel holds the write) but not a machine crash — the
	// opt-out for fsync-bound campaigns on slow disks.
	NoSync bool
	// Log receives a warning when a torn trailing record is repaired;
	// nil discards it.
	Log *slog.Logger
	// Injector arms the append/fsync fault points (tests only).
	Injector *Injector
}

// OpenJournal opens (creating if needed) the journal at path for appending,
// with per-record fsync on.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalOpts(path, JournalOpts{})
}

// OpenJournalOpts opens the journal at path for appending. If the file ends
// in a torn record — a crash mid-append left bytes after the last newline —
// the partial record is truncated away (with a logged warning) so new
// appends never fuse onto a half-written line and later resumes see a clean
// JSONL stream.
func OpenJournalOpts(path string, opts JournalOpts) (*Journal, error) {
	l, dropped, err := OpenLog(path, !opts.NoSync, opts.Injector)
	if err != nil {
		return nil, fmt.Errorf("harness: journal %w", err)
	}
	if dropped > 0 && opts.Log != nil {
		opts.Log.Warn("journal: dropped torn trailing record",
			"path", path, "bytes", dropped)
	}
	return &Journal{log: l}, nil
}

// RepairTornTail truncates a trailing partial line (no final newline) left
// by a crash mid-append, returning how many bytes were dropped. It is the
// open-for-append repair of every JSONL log in the suite (OpenLog).
func RepairTornTail(f *os.File) (dropped int64, err error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, fmt.Errorf("seek: %w", err)
	}
	if size == 0 {
		return 0, nil
	}
	// Walk back from the end to the last newline. Torn records are bounded
	// by one Append, so reading back in small chunks terminates quickly.
	buf := make([]byte, 4096)
	keep := int64(0) // bytes to keep: offset just past the last '\n'
	for off := size; off > 0 && keep == 0; {
		n := int64(len(buf))
		if n > off {
			n = off
		}
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return 0, fmt.Errorf("read tail: %w", err)
		}
		for i := n - 1; i >= 0; i-- {
			if buf[i] == '\n' {
				keep = off + i + 1
				break
			}
		}
	}
	if keep == size {
		return 0, nil
	}
	if err := f.Truncate(keep); err != nil {
		return 0, fmt.Errorf("truncate torn tail: %w", err)
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		return 0, fmt.Errorf("seek: %w", err)
	}
	return size - keep, nil
}

// Append writes one record as a single JSON line and, unless the journal
// was opened with NoSync, fsyncs it — the record is durable before Append
// returns. A failed append leaves no partial line behind (Log.Append).
func (j *Journal) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("harness: journal marshal: %w", err)
	}
	if _, err := j.log.Append(rec.ID, append(data, '\n')); err != nil {
		return fmt.Errorf("harness: journal %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// ReadJournal loads every complete record from path. A missing file is an
// empty journal (fresh campaign with -resume is fine). A torn final line —
// the crash case Append's per-record flush bounds us to — is ignored; a
// malformed line anywhere else is an error, since it means the file is not
// a journal.
func ReadJournal(path string) ([]Record, error) {
	recs, _, err := ReadJournalTorn(path)
	return recs, err
}

// ReadJournalTorn is ReadJournal, additionally reporting whether a torn
// (partial or malformed) final record was skipped — resume paths log it as
// a warning instead of failing the whole campaign.
func ReadJournalTorn(path string) (recs []Record, torn bool, err error) {
	torn, err = ReadLines(path, 16*1024*1024, func(text []byte) error {
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("harness: journal %w", err)
	}
	return recs, torn, nil
}

// ReadLines is the shared reader for every JSONL log in the suite (campaign
// journals here, the serve registry WAL): it calls fn with each non-blank
// line of the file at path, in order. fn returning an error marks the line
// bad. A bad FINAL line is the crash case per-record appends bound us to —
// it is skipped and reported as torn; a bad line followed by another one
// stops the read there and returns fn's error (with torn set), since
// everything before it was already handed to fn. A missing file is an empty
// log. maxLine bounds one line; text is only valid during the call.
func ReadLines(path string, maxLine int, fn func(text []byte) error) (torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var pending error
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if pending != nil {
			return true, pending
		}
		if err := fn(text); err != nil {
			pending = fmt.Errorf("%s line %d: %w", path, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return pending != nil, nil
}

// CompletedIDs indexes journal records by run ID. Every recorded terminal
// status counts as completed — a deterministic failure would only fail
// again on resume. Later records for the same ID win.
func CompletedIDs(recs []Record) map[string]Record {
	done := make(map[string]Record, len(recs))
	for _, r := range recs {
		switch r.Status {
		case StatusOK, StatusDegraded, StatusFailed:
			done[r.ID] = r
		}
	}
	return done
}
