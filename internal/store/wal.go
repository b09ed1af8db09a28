package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mood/internal/clock"
)

// The segmented write-ahead log.
//
// On-disk layout (all inside Options.Dir):
//
//	segment-%08d.wal    append-only record segments, replayed ascending
//	snapshot-%08d.json  the latest compaction; its index N means "this
//	                    snapshot covers every segment with index < N"
//	                    (opaque bytes here; the name dates from when the
//	                    service tier's snapshot was JSON)
//	*.tmp               in-flight atomic writes (deleted on recovery)
//
// Each Append is one frame — the atomicity unit (the service tier hands
// the commits of a whole batch window to one Append, so that they share
// the frame and its sync):
//
//	u32 payload length (LE) | u32 CRC32C(payload) | payload
//	payload = repeat{ u8 record type | u32 length (LE) | bytes }
//
// Recovery replays the newest snapshot, then every surviving segment's
// frames in order. The first invalid frame (short header, impossible
// length, CRC mismatch, malformed payload) marks a torn tail: the file
// is truncated to the last valid frame and every later segment is
// deleted. That wholesale deletion is sound because rotation syncs a
// segment before opening its successor — after a real crash nothing
// valid can exist beyond the first tear.
//
// Fsync policy: FsyncAlways syncs inside every Append (an acked record
// is on stable storage before the caller continues); FsyncGroup hands
// the sync to a flusher goroutine — a lone Append syncs immediately,
// and Appends that arrive while a sync is in flight coalesce into the
// next round, so under load any number of concurrent commits share one
// sync. A positive FlushInterval additionally holds each round open on
// the injected clock to build larger groups (for disks where the sync
// dominates). Callers still block until their record is synced, so
// "acked" still means durable; only the latency/throughput trade-off
// changes.
//
// Any write or sync failure poisons the WAL permanently: a partial
// frame may be on disk, and appending after it would strand every
// later record beyond the tear at recovery. The only way forward after
// a storage error is a reopen, which is exactly a recovery.

// FsyncMode selects the WAL's durability/latency trade-off.
type FsyncMode int

const (
	// FsyncAlways syncs every Append before it returns.
	FsyncAlways FsyncMode = iota
	// FsyncGroup coalesces concurrent Appends into shared syncs; Append
	// still blocks until its record is synced.
	FsyncGroup
)

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "group":
		return FsyncGroup, nil
	}
	return 0, fmt.Errorf(`store: unknown fsync mode %q (want "always" or "group")`, s)
}

func (m FsyncMode) String() string {
	if m == FsyncGroup {
		return "group"
	}
	return "always"
}

// WALOptions tunes the log. The zero value of every field selects a
// production default.
type WALOptions struct {
	// Dir is the log directory (required).
	Dir string
	// Fsync is the durability policy (default FsyncAlways).
	Fsync FsyncMode
	// FlushInterval holds each group-commit round open on the injected
	// clock to build larger groups. The default 0 syncs as soon as the
	// flusher is free — coalescing still happens (Appends arriving
	// during a sync share the next round) without taxing an uncontended
	// Append. Only used with FsyncGroup.
	FlushInterval time.Duration
	// SegmentBytes caps a segment before rotation (default 4 MiB).
	SegmentBytes int64
	// CompactBytes is the live-log size above which NeedsCompaction
	// reports true (default 1 MiB).
	CompactBytes int64
	// Clock paces the group-commit flusher (default the system clock;
	// tests install clock.Manual).
	Clock clock.Clock
	// FS is the filesystem (default the real one; tests inject MemFS
	// and FaultFS).
	FS FS
}

func (o *WALOptions) fill() error {
	if o.Dir == "" {
		return errors.New("store: WAL needs a directory")
	}
	if o.FlushInterval < 0 {
		o.FlushInterval = 0
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 1 << 20
	}
	if o.Clock == nil {
		o.Clock = clock.System()
	}
	if o.FS == nil {
		o.FS = OS()
	}
	return nil
}

// maxFrame bounds a frame payload; anything larger in a header is
// corruption, not data.
const maxFrame = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWALClosed is returned by operations on a closed WAL.
var ErrWALClosed = errors.New("store: WAL closed")

// WAL is the segmented append-only log backend. Create with NewWAL,
// then Load exactly once before appending.
type WAL struct {
	o WALOptions

	mu       sync.Mutex
	loaded   bool
	closed   bool
	err      error // sticky poison: first write/sync failure, fatal
	seg      File  // active segment (nil until the first append needs it)
	segIndex int   // index of the segment being written (or created next)
	segSize  int64
	sizes    map[int]int64 // live segment index -> byte size
	snapIdx  int           // index of the installed snapshot; -1 = none
	tail     int64         // total live segment bytes (NeedsCompaction)
	writeSeq int64         // frames written
	durable  int64         // frames synced

	// Group commit: Append grabs the current flushDone channel, nudges
	// flushReq, and waits for the channel to close. The flusher waits
	// out the flush interval (coalescing every Append that arrives
	// meanwhile), swaps in a fresh channel, syncs, and closes the old
	// one. A waiter needs exactly one wait: its frame was written before
	// it grabbed the channel, and whichever flush round owns that
	// channel reads writeSeq after the swap — after the waiter's write.
	flushMu   sync.Mutex
	flushDone chan struct{}
	flushReq  chan struct{}
	stop      chan struct{}
	done      chan struct{}
}

// NewWAL prepares a WAL over opts.Dir. Call Load before appending.
func NewWAL(opts WALOptions) (*WAL, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	return &WAL{
		o:         opts,
		sizes:     make(map[int]int64),
		snapIdx:   -1,
		flushDone: make(chan struct{}),
		flushReq:  make(chan struct{}, 1),
	}, nil
}

// Name implements Store.
func (w *WAL) Name() string { return "wal" }

func (w *WAL) segName(idx int) string {
	return filepath.Join(w.o.Dir, fmt.Sprintf("segment-%08d.wal", idx))
}

func (w *WAL) snapName(idx int) string {
	return filepath.Join(w.o.Dir, fmt.Sprintf("snapshot-%08d.json", idx))
}

// Load implements Store: recover the newest snapshot and every frame
// appended after it, truncating a torn tail. Corruption is recovered
// from, never surfaced as an error — only real I/O failures are.
func (w *WAL) Load() ([]byte, []Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.loaded {
		return nil, nil, errors.New("store: WAL loaded twice")
	}
	if err := w.o.FS.MkdirAll(w.o.Dir, fs.FileMode(0o755)); err != nil {
		return nil, nil, fmt.Errorf("store: creating WAL dir: %w", err)
	}
	names, err := w.o.FS.ReadDir(w.o.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: listing WAL dir: %w", err)
	}

	var segs, snaps []int
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An atomic write died before its rename; the commit never
			// happened.
			w.o.FS.Remove(filepath.Join(w.o.Dir, name)) //nolint:errcheck
		default:
			if idx, ok := parseIndexed(name, "segment-%08d.wal"); ok {
				segs = append(segs, idx)
			} else if idx, ok := parseIndexed(name, "snapshot-%08d.json"); ok {
				snaps = append(snaps, idx)
			}
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)

	// The newest snapshot wins; older ones (a crash between installing
	// the new snapshot and deleting the old) are pruned now.
	var snapshot []byte
	if len(snaps) > 0 {
		w.snapIdx = snaps[len(snaps)-1]
		snapshot, err = w.o.FS.ReadFile(w.snapName(w.snapIdx))
		if err != nil {
			return nil, nil, fmt.Errorf("store: reading snapshot: %w", err)
		}
		for _, idx := range snaps[:len(snaps)-1] {
			w.o.FS.Remove(w.snapName(idx)) //nolint:errcheck
		}
	}

	// Segments the snapshot covers are dead weight (a crash between
	// snapshot install and segment pruning); replay only the rest.
	var recs []Record
	live := segs[:0]
	for _, idx := range segs {
		if idx < w.snapIdx {
			w.o.FS.Remove(w.segName(idx)) //nolint:errcheck
			continue
		}
		live = append(live, idx)
	}
	for i, idx := range live {
		data, err := w.o.FS.ReadFile(w.segName(idx))
		if err != nil {
			return nil, nil, fmt.Errorf("store: reading segment %d: %w", idx, err)
		}
		segRecs, frames, valid := parseFrames(data)
		recs = append(recs, segRecs...)
		w.writeSeq += frames
		w.segIndex = idx
		w.segSize = int64(valid)
		w.sizes[idx] = int64(valid)
		w.tail += int64(valid)
		if valid < len(data) {
			// Torn tail: cut this segment at the last valid frame and
			// drop everything after it. Rotation syncs before switching
			// segments, so no later segment can hold anything durable.
			if err := w.o.FS.Truncate(w.segName(idx), int64(valid)); err != nil {
				return nil, nil, fmt.Errorf("store: truncating torn segment %d: %w", idx, err)
			}
			for _, later := range live[i+1:] {
				w.o.FS.Remove(w.segName(later)) //nolint:errcheck
			}
			break
		}
	}
	if len(live) == 0 {
		if w.snapIdx >= 0 {
			w.segIndex = w.snapIdx
		} else {
			w.segIndex = 0
		}
	}

	w.durable = w.writeSeq
	w.loaded = true
	if w.o.Fsync == FsyncGroup {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flusher()
	}
	return snapshot, recs, nil
}

// parseIndexed extracts the index from a WAL file name, accepting only
// exact round-trips of the naming format (stray files are ignored, not
// misparsed).
func parseIndexed(name, format string) (int, bool) {
	var idx int
	if n, err := fmt.Sscanf(name, format, &idx); err != nil || n != 1 {
		return 0, false
	}
	if fmt.Sprintf(format, idx) != name {
		return 0, false
	}
	return idx, true
}

// Append implements Store: frame the records and make them durable
// under the fsync policy.
func (w *WAL) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf := frames.Get().(*[]byte)
	frame, err := encodeFrame((*buf)[:0], recs)
	if err != nil {
		return err
	}
	w.mu.Lock()
	if err := w.usableLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	seq, err := w.appendLocked(frame)
	if cap(frame) <= maxPooledFrame {
		// The segment's Write has returned: the frame is ours again.
		*buf = frame
		frames.Put(buf)
	}
	if err != nil {
		w.mu.Unlock()
		return err
	}
	if w.o.Fsync == FsyncAlways {
		err = w.syncLocked()
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	return w.awaitFlush(seq)
}

// usableLocked gates every mutation.
func (w *WAL) usableLocked() error {
	switch {
	case !w.loaded:
		return errors.New("store: WAL used before Load")
	case w.closed:
		return ErrWALClosed
	case w.err != nil:
		return w.err
	}
	return nil
}

// poisonLocked records the first fatal storage error; every later
// operation fails with it (see the package comment on why appending
// past a possible partial frame is never safe).
func (w *WAL) poisonLocked(err error) error {
	if w.err == nil {
		w.err = fmt.Errorf("store: WAL failed permanently: %w", err)
	}
	return w.err
}

// appendLocked rotates if needed, lazily opens the active segment and
// writes one frame. Returns the frame's sequence number.
func (w *WAL) appendLocked(frame []byte) (int64, error) {
	if w.seg != nil && w.segSize > 0 && w.segSize+int64(len(frame)) > w.o.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if w.seg == nil {
		f, err := w.o.FS.OpenFile(w.segName(w.segIndex), os.O_WRONLY|os.O_CREATE|os.O_APPEND, fs.FileMode(0o644))
		if err != nil {
			return 0, w.poisonLocked(err)
		}
		// The new segment's directory entry must be durable before any
		// frame in it counts as synced.
		if err := w.o.FS.SyncDir(w.o.Dir); err != nil {
			f.Close()
			return 0, w.poisonLocked(err)
		}
		w.seg = f
		w.segSize = w.sizes[w.segIndex]
	}
	n, err := w.seg.Write(frame)
	if err != nil {
		return 0, w.poisonLocked(err)
	}
	if n < len(frame) {
		return 0, w.poisonLocked(fmt.Errorf("short write: %d of %d bytes", n, len(frame)))
	}
	w.segSize += int64(n)
	w.sizes[w.segIndex] = w.segSize
	w.tail += int64(n)
	w.writeSeq++
	return w.writeSeq, nil
}

// rotateLocked seals the active segment (sync, then close) and points
// the WAL at the next index. The sync-before-switch is what licenses
// recovery to delete every segment after a torn one.
func (w *WAL) rotateLocked() error {
	if err := w.seg.Sync(); err != nil {
		return w.poisonLocked(err)
	}
	w.seg.Close() //nolint:errcheck // synced; close failure loses nothing
	w.seg = nil
	w.durable = w.writeSeq
	w.segIndex++
	w.segSize = 0
	return nil
}

// syncLocked makes every written frame durable.
func (w *WAL) syncLocked() error {
	if w.durable >= w.writeSeq {
		return nil
	}
	if w.seg == nil {
		// Rotation already synced everything written so far.
		w.durable = w.writeSeq
		return nil
	}
	if err := w.seg.Sync(); err != nil {
		return w.poisonLocked(err)
	}
	w.durable = w.writeSeq
	return nil
}

// awaitFlush blocks a group-commit Append until its frame is synced.
func (w *WAL) awaitFlush(seq int64) error {
	w.flushMu.Lock()
	ch := w.flushDone
	w.flushMu.Unlock()
	select {
	case w.flushReq <- struct{}{}:
	default: // a flush round is already pending; it covers this frame
	}
	select {
	case <-ch:
	case <-w.done:
		// The flusher exited; its final round synced everything written
		// before Close. The durability check below settles it.
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.durable >= seq {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	return ErrWALClosed
}

// flusher is the group-commit loop: each request triggers a round that
// syncs and releases the waiters. A lone Append syncs immediately;
// Appends arriving during a round's sync nudge flushReq again and share
// the next round — the group size adapts to how long the disk takes. A
// positive FlushInterval holds each round open on the injected clock
// first, trading latency for larger groups.
func (w *WAL) flusher() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			w.flushRound()
			return
		case <-w.flushReq:
			if w.o.FlushInterval > 0 {
				select {
				case <-w.o.Clock.After(w.o.FlushInterval):
				case <-w.stop:
				}
			}
			w.flushRound()
		}
	}
}

func (w *WAL) flushRound() {
	w.flushMu.Lock()
	released := w.flushDone
	w.flushDone = make(chan struct{})
	w.flushMu.Unlock()
	w.syncUnlocked()
	close(released)
}

// syncUnlocked makes every frame written so far durable WITHOUT holding
// the mutex across the fsync: appenders keep writing (and joining the
// next round) while the disk works, so group commit overlaps CPU work
// with disk work instead of serialising behind it. Errors poison the
// WAL; waiters observe them through durable/err, like syncLocked.
func (w *WAL) syncUnlocked() {
	w.mu.Lock()
	if w.err != nil || w.durable >= w.writeSeq {
		w.mu.Unlock()
		return
	}
	f, seq := w.seg, w.writeSeq
	if f == nil {
		// Rotation already synced everything written so far.
		w.durable = seq
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	err := f.Sync()
	w.mu.Lock()
	if err != nil && w.seg != f {
		// The segment rotated (or Mark sealed it) while we were syncing:
		// both sync before closing, so everything up to seq is durable
		// regardless of what our racing Sync on the closed handle said.
		err = nil
	}
	if err != nil {
		w.poisonLocked(err) //nolint:errcheck // waiters read it via durable/err
	} else if seq > w.durable {
		w.durable = seq
	}
	w.mu.Unlock()
}

// Mark implements Store: seal the active segment so the snapshot
// boundary falls exactly between two segments, and return that
// boundary. The caller captures its state after Mark returns; every
// frame appended before the Mark is inside the boundary and therefore
// inside the captured state.
func (w *WAL) Mark() (Pos, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return 0, err
	}
	if w.seg != nil {
		if err := w.seg.Sync(); err != nil {
			return 0, w.poisonLocked(err)
		}
		w.seg.Close() //nolint:errcheck
		w.seg = nil
		w.durable = w.writeSeq
	}
	if w.sizes[w.segIndex] > 0 {
		w.segIndex++
		w.segSize = 0
	}
	return Pos(w.segIndex), nil
}

// Compact implements Store: install the snapshot atomically, then
// prune the covered segments and any older snapshot. A crash between
// those steps leaves stale files the next Load removes.
func (w *WAL) Compact(snapshot []byte, pos Pos) error {
	w.mu.Lock()
	if err := w.usableLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()

	if err := AtomicWriteFile(w.o.FS, w.snapName(int(pos)), snapshot); err != nil {
		return err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	for idx, size := range w.sizes {
		if idx < int(pos) {
			w.o.FS.Remove(w.segName(idx)) //nolint:errcheck // next Load prunes leftovers
			w.tail -= size
			delete(w.sizes, idx)
		}
	}
	if w.snapIdx >= 0 && w.snapIdx < int(pos) {
		w.o.FS.Remove(w.snapName(w.snapIdx)) //nolint:errcheck
	}
	w.snapIdx = int(pos)
	return nil
}

// NeedsCompaction implements Store: compaction pays off once the live
// log would make recovery replay more than CompactBytes.
func (w *WAL) NeedsCompaction() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tail >= w.o.CompactBytes
}

// Close implements Store: stop the flusher (its final round syncs
// everything already written) and seal the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	flusher := w.stop != nil
	w.mu.Unlock()
	if flusher {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg != nil {
		err := w.seg.Sync()
		w.seg.Close() //nolint:errcheck
		w.seg = nil
		if err != nil && w.err == nil {
			w.err = err
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Framing.

// frames recycles Append's frame buffers: a frame is dead once the
// segment's Write has returned. One larger than maxPooledFrame is left
// to the collector rather than pinned in the pool.
var frames = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 8 << 20

// encodeFrame serialises one Append batch into dst's spare capacity, or
// into a new buffer of exactly its size when dst has too little.
func encodeFrame(dst []byte, recs []Record) ([]byte, error) {
	size := 0
	for _, r := range recs {
		size += 5 + len(r.Payload)
	}
	if size > maxFrame {
		return nil, fmt.Errorf("store: frame of %d bytes exceeds the %d limit", size, maxFrame)
	}
	// One buffer: the header is reserved up front and patched once the
	// payload it describes has been appended behind it.
	if cap(dst) < 8+size {
		dst = make([]byte, 0, 8+size)
	}
	frame := dst[:8]
	for _, r := range recs {
		frame = append(frame, r.Type)
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(r.Payload)))
		frame = append(frame, r.Payload...)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(size))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
	return frame, nil
}

// parseFrames decodes the valid frame prefix of a segment. It never
// fails: the first invalid frame ends the parse, and valid reports how
// many bytes of data are good — the truncation point for a torn tail.
func parseFrames(data []byte) (recs []Record, frames int64, valid int) {
	off := 0
	for {
		if len(data)-off < 8 {
			return recs, frames, off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || n > maxFrame || len(data)-off-8 < n {
			return recs, frames, off
		}
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return recs, frames, off
		}
		frameRecs, ok := parsePayload(payload)
		if !ok {
			return recs, frames, off
		}
		recs = append(recs, frameRecs...)
		frames++
		off += 8 + n
	}
}

// parsePayload decodes one frame's records. All-or-nothing: a frame is
// the atomicity unit, so a malformed interior record invalidates the
// whole frame (CRC should make this unreachable; it guards the parser
// against adversarial bytes all the same).
func parsePayload(p []byte) ([]Record, bool) {
	var out []Record
	for len(p) > 0 {
		if len(p) < 5 {
			return nil, false
		}
		typ := p[0]
		n := int(binary.LittleEndian.Uint32(p[1:5]))
		if n > len(p)-5 {
			return nil, false
		}
		out = append(out, Record{Type: typ, Payload: append([]byte(nil), p[5:5+n]...)})
		p = p[5+n:]
	}
	return out, true
}
