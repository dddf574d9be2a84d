package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Log is the append side of every JSONL log in the suite (campaign journals
// here, the serve registry WAL): callers marshal a record into one
// newline-terminated line and Append makes it durable. While the process is
// live the file always ends on a line boundary — a failed or short write, or
// a failed fsync, is rolled back to the line's start offset, so a later
// append can never fuse onto a partial line and turn a torn tail (which
// ReadLines skips) into mid-file corruption (which it rejects).
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64
	sync   bool
	inject *Injector
	// damaged poisons the log after a failed rollback left the file ending
	// mid-line: every later append fails rather than fuse onto the partial
	// line. Cleared by a Rewrite (which replaces the file) or a reopen
	// (whose RepairTornTail removes the damage).
	damaged error
}

// OpenLog opens (creating if needed) the log at path for appending. A torn
// trailing line — a crash mid-append left bytes after the last newline — is
// truncated away first; dropped reports how many bytes that removed. With
// fsync set every Append syncs the file before returning. inject arms the
// PointWALAppend / PointWALSync fault points (tests only; nil disables).
func OpenLog(path string, fsync bool, inject *Injector) (l *Log, dropped int64, err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	dropped, err = RepairTornTail(f)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("seek: %w", err)
	}
	return &Log{f: f, path: path, size: size, sync: fsync, inject: inject}, dropped, nil
}

// Append writes line (one record, newline included) and, when the log was
// opened with fsync, syncs it: the record is durable when Append returns
// nil, and fsync is how long the sync took (0 without one). On any failure
// the file is rolled back to the line boundary, so the process can keep
// appending and the refused record can never be read back. id names the
// record to the fault points: PointWALAppend before the write (FaultErr
// simulates disk full; FaultTorn persists only half the line then fails, as
// a crash mid-write would, before the rollback restores the boundary) and
// PointWALSync before the fsync.
func (l *Log) Append(id string, line []byte) (fsync time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.damaged != nil {
		return 0, l.damaged
	}
	start := l.size
	if err := l.inject.Fire(id, PointWALAppend); err != nil {
		if errors.Is(err, ErrTornWrite) {
			if n, werr := l.f.Write(line[:len(line)/2]); werr == nil {
				l.size += int64(n)
				l.f.Sync()
			}
			l.rollback(start)
		}
		return 0, fmt.Errorf("append: %w", err)
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil || n != len(line) {
		l.rollback(start)
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, fmt.Errorf("append: %w", err)
	}
	if !l.sync {
		return 0, nil
	}
	// A record whose fsync failed is refused, so it must leave the file too:
	// left in place it would be read back on the next open, ahead of (and
	// shadowing) whatever the caller writes in its stead.
	err = l.inject.Fire(id, PointWALSync)
	syncStart := time.Now()
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.rollback(start)
		return 0, fmt.Errorf("fsync: %w", err)
	}
	return time.Since(syncStart), nil
}

// rollback restores the line boundary after a failed or short write by
// truncating back to the line's start offset. If even that fails the file
// may end mid-line, and the log poisons itself.
func (l *Log) rollback(start int64) {
	if err := l.f.Truncate(start); err != nil {
		l.damaged = fmt.Errorf("log ends mid-record and rollback failed: %w", err)
		return
	}
	l.size = start
}

// Rewrite drops every line keep rejects. When nothing is kept the file is
// simply emptied; otherwise the kept lines are written to a fresh file that
// is atomically renamed over the log, so a crash anywhere leaves either the
// old complete log or the new one. A torn or unreadable line is never an
// acked record (Append rolls failed writes back), so callers' keep rejects
// it — which also clears a damaged log. maxLine bounds one line, as in
// ReadLines.
func (l *Log) Rewrite(maxLine int, keep func(text []byte) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var kept []byte
	if _, err := ReadLines(l.path, maxLine, func(text []byte) error {
		if keep(text) {
			kept = append(append(kept, text...), '\n')
		}
		return nil
	}); err != nil {
		return err
	}
	if len(kept) == 0 {
		if err := l.f.Truncate(0); err != nil {
			return err
		}
		if _, err := l.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		l.size, l.damaged = 0, nil
		return nil
	}
	// The temp file's handle becomes the log's append handle: it follows
	// the inode across the rename, so there is no window where the log's
	// path exists without a writable handle behind it.
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_APPEND|os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("rewrite: %w", err)
	}
	_, err = nf.Write(kept)
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("rewrite: %w", err)
	}
	l.f.Close()
	l.f = nf
	l.size, l.damaged = int64(len(kept)), nil
	return SyncDir(filepath.Dir(l.path))
}

// SyncDir fsyncs a directory so a just-renamed file survives a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsync dir: %w", err)
	}
	return nil
}

// Size reports the log's current byte length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
