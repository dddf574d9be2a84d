package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/harness"
)

// The snapshot is the WAL's compaction target: the full registry serialized
// as one CRC-guarded file, after which the log can be truncated. The layout
// is
//
//	magic "SPMMSNP1" (8) | crc32 (4) | body length (8) | body (JSON)
//
// written to a temp file, fsynced, and renamed into place (then the
// directory fsynced), so a crash mid-snapshot leaves the previous snapshot
// intact and a torn rename is impossible. Load verifies magic, length and
// CRC; any mismatch is ErrCorruptSnapshot and recovery falls back to full
// WAL replay.

const snapshotMagic = "SPMMSNP1"

// ErrCorruptSnapshot marks a snapshot that failed its magic, length or CRC
// check. Recovery treats it as absent and replays the whole WAL.
var ErrCorruptSnapshot = errors.New("serve: corrupt snapshot")

// snapshot is the persisted registry image.
type snapshot struct {
	Version int `json:"version"`
	// LastSeq is the newest WAL sequence number the snapshot covers; WAL
	// records at or below it are redundant on replay.
	LastSeq uint64      `json:"last_seq"`
	Records []walRecord `json:"records"`
}

// writeSnapshot atomically publishes snap at dir/snapshot.dat. The
// PointSnapshot fault point fires mid-body-write: FaultErr aborts with the
// temp file partially written (crash-at-point during snapshot), which must
// leave the previous snapshot untouched.
func writeSnapshot(dir string, snap *snapshot, inject *harness.Injector) error {
	body, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("serve: snapshot marshal: %w", err)
	}
	var header [20]byte
	copy(header[:8], snapshotMagic)
	binary.LittleEndian.PutUint32(header[8:12], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(header[12:20], uint64(len(body)))

	tmp := filepath.Join(dir, "snapshot.tmp")
	final := filepath.Join(dir, "snapshot.dat")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("serve: snapshot create: %w", err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if _, err := f.Write(header[:]); err != nil {
		f.Close()
		return fmt.Errorf("serve: snapshot write: %w", err)
	}
	// Fault point between header and body: an injected failure here leaves
	// a structurally torn temp file, exactly what a crash produces.
	if err := inject.Fire("snapshot", harness.PointSnapshot); err != nil {
		f.Write(body[:len(body)/2])
		f.Close()
		return fmt.Errorf("serve: snapshot write: %w", err)
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return fmt.Errorf("serve: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("serve: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("serve: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("serve: snapshot publish: %w", err)
	}
	if err := harness.SyncDir(dir); err != nil {
		return fmt.Errorf("serve: snapshot publish: %w", err)
	}
	return nil
}

// loadSnapshot reads and verifies dir/snapshot.dat. A missing file returns
// (nil, nil); any structural or checksum failure returns ErrCorruptSnapshot
// (wrapped with the cause).
func loadSnapshot(dir string) (*snapshot, error) {
	f, err := os.Open(filepath.Join(dir, "snapshot.dat"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: open snapshot: %w", err)
	}
	defer f.Close()

	var header [20]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorruptSnapshot, err)
	}
	if string(header[:8]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, header[:8])
	}
	wantCRC := binary.LittleEndian.Uint32(header[8:12])
	length := binary.LittleEndian.Uint64(header[12:20])
	if length > 1<<40 {
		return nil, fmt.Errorf("%w: implausible body length %d", ErrCorruptSnapshot, length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(f, body); err != nil {
		return nil, fmt.Errorf("%w: short body: %v", ErrCorruptSnapshot, err)
	}
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("%w: crc %08x != %08x", ErrCorruptSnapshot, got, wantCRC)
	}
	var snap snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrCorruptSnapshot, err)
	}
	return &snap, nil
}
