// Package store is the durability layer of the service tier: commit
// records are appended at upload time, replayed on boot, and compacted
// into snapshots in the background.
//
// WAL is the one backend: a segmented append-only write-ahead log with
// CRC32C-framed records, configurable fsync policy, segment rotation,
// torn-tail recovery and snapshot compaction — an acked record survives
// any crash (see wal.go). Store stays an interface so tests can stand in
// failing or slow stores.
//
// Record payloads and snapshots are opaque bytes to this package — the
// service tier defines the record types, their encoding and the
// snapshot's (a checksummed binary codec; see internal/service/
// durable.go and walcodec.go). The store guarantees atomicity (all
// records of one Append survive together or not at all; a snapshot is
// installed whole or not at all), ordering, and that Load hands back
// exactly the snapshot bytes Compact was given — it does not check
// them, the service tier's decoder does.
package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Record is one durable commit record: a type tag the replayer
// dispatches on and an opaque payload.
type Record struct {
	Type    byte
	Payload []byte
}

// Pos is an opaque compaction position handed from Mark to Compact: for
// the WAL, a segment boundary ("the snapshot covers every segment below
// this index").
type Pos int64

// Store is the pluggable durability engine.
//
// The protocol: Load exactly once before anything else (it returns the
// latest snapshot plus every record appended after it, in order); then
// Append on each commit. Compaction is a two-step handshake so the
// caller can capture its in-memory state at a consistent point: Mark
// fences the log and returns the position the upcoming snapshot will
// cover, the caller serialises its state (which must include every
// record appended before Mark), and Compact atomically installs the
// snapshot and prunes the covered log. A crash anywhere in the
// handshake is safe: the old snapshot + uncut log still replay to the
// same state.
type Store interface {
	// Name identifies the backend ("wal") for diagnostics.
	Name() string
	// Append durably adds the records as one atomic batch. When it
	// returns nil the batch survives any subsequent crash (under the
	// backend's fsync policy); when it returns an error nothing of the
	// batch is promised and the caller must not apply its effects.
	// As with io.Writer, Append must not keep recs or their payloads
	// after it returns: the caller reuses their buffers.
	Append(recs ...Record) error
	// Load reads the backend: the latest snapshot (nil when none) and
	// the records appended since it, in append order. Must be called
	// exactly once, before any other method.
	Load() (snapshot []byte, recs []Record, err error)
	// Mark fences the log for compaction and returns the position the
	// next snapshot will cover. Records appended after Mark are not
	// covered and survive the Compact.
	Mark() (Pos, error)
	// Compact installs a snapshot covering everything up to pos and
	// prunes the log below it.
	Compact(snapshot []byte, pos Pos) error
	// NeedsCompaction reports whether enough has accumulated since the
	// last snapshot to make a compaction worthwhile.
	NeedsCompaction() bool
	// Close releases the backend. Appends after Close fail.
	Close() error
}

// AtomicWriteFile writes data to path with crash-safe atomicity: the
// bytes land in a temp file that is synced, renamed over path, and the
// directory synced — a reader (or a recovery) sees either the complete
// old file or the complete new one, never a torn mix. The rename is
// the commit point.
func AtomicWriteFile(fsys FS, path string, data []byte) error {
	if fsys == nil {
		fsys = OS()
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, fs.FileMode(0o644))
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("store: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("store: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("store: committing %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: syncing dir of %s: %w", path, err)
	}
	return nil
}
