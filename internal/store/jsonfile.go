package store

import (
	"errors"
	"io/fs"
	"sync/atomic"
)

// JSONFile is the snapshot-only backend: one state file, named for the
// JSON snapshot it used to hold (the service tier now writes a binary
// one, and still reads the JSON a previous release left at the same
// path). Appends are bookkeeping only — a commit is durable only once
// the next compaction lands — which is exactly the pre-WAL durability
// contract (a crash can lose everything since the last snapshot). Its one behavioural improvement over the
// old snapshot loop: NeedsCompaction is false while nothing has been
// appended, so an idle server no longer rewrites an identical snapshot
// every interval.
type JSONFile struct {
	path  string
	fsys  FS
	dirty atomic.Int64 // appends since the last installed snapshot
}

// NewJSONFile opens the snapshot backend at path. fsys nil means the
// real filesystem.
func NewJSONFile(path string, fsys FS) *JSONFile {
	if fsys == nil {
		fsys = OS()
	}
	return &JSONFile{path: path, fsys: fsys}
}

// Name implements Store.
func (j *JSONFile) Name() string { return "json" }

// Append implements Store: the records themselves are not persisted
// (snapshot-only durability); the dirty counter drives NeedsCompaction.
func (j *JSONFile) Append(recs ...Record) error {
	if len(recs) > 0 {
		j.dirty.Add(1)
	}
	return nil
}

// Load implements Store. A missing file is an empty store, not an
// error (first boot).
func (j *JSONFile) Load() ([]byte, []Record, error) {
	data, err := j.fsys.ReadFile(j.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	return data, nil, nil
}

// Mark implements Store: the position is the dirty count the snapshot
// will cover, so appends racing the capture stay dirty.
func (j *JSONFile) Mark() (Pos, error) {
	return Pos(j.dirty.Load()), nil
}

// Compact implements Store: install the snapshot atomically.
func (j *JSONFile) Compact(snapshot []byte, pos Pos) error {
	if err := AtomicWriteFile(j.fsys, j.path, snapshot); err != nil {
		return err
	}
	j.dirty.Add(-int64(pos))
	return nil
}

// NeedsCompaction implements Store: anything appended since the last
// snapshot is at risk.
func (j *JSONFile) NeedsCompaction() bool { return j.dirty.Load() > 0 }

// Close implements Store.
func (j *JSONFile) Close() error { return nil }
