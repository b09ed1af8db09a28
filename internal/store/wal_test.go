package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/clock"
)

func mustWAL(t *testing.T, opts WALOptions) (*WAL, []byte, []Record) {
	t.Helper()
	w, err := NewWAL(opts)
	if err != nil {
		t.Fatalf("NewWAL: %v", err)
	}
	snap, recs, err := w.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return w, snap, recs
}

func rec(typ byte, payload string) Record {
	return Record{Type: typ, Payload: []byte(payload)}
}

func wantRecs(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got {%d %q}, want {%d %q}",
				i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	fsys := NewMemFS()
	w, snap, recs := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	if snap != nil || len(recs) != 0 {
		t.Fatalf("fresh WAL returned snapshot %q and %d records", snap, len(recs))
	}
	want := []Record{rec(1, "alpha"), rec(2, "beta"), rec(1, "gamma"), rec(3, "")}
	if err := w.Append(want[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// One multi-record batch: must survive as one atomic frame.
	if err := w.Append(want[1], want[2]); err != nil {
		t.Fatalf("Append batch: %v", err)
	}
	if err := w.Append(want[3]); err != nil {
		t.Fatalf("Append empty-payload: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, _, got := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	wantRecs(t, got, want)
}

func TestWALLoadGuards(t *testing.T) {
	fsys := NewMemFS()
	w, err := NewWAL(WALOptions{Dir: "wal", FS: fsys})
	if err != nil {
		t.Fatalf("NewWAL: %v", err)
	}
	if err := w.Append(rec(1, "early")); err == nil {
		t.Fatal("Append before Load succeeded")
	}
	if _, _, err := w.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, _, err := w.Load(); err == nil {
		t.Fatal("second Load succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append(rec(1, "late")); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("Append after Close: %v, want ErrWALClosed", err)
	}
}

// appendRaw tacks bytes onto a segment file directly, simulating a torn
// write that the WAL itself never acknowledged.
func appendRaw(t *testing.T, fsys FS, name string, raw []byte) {
	t.Helper()
	h, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, fs.FileMode(0o644))
	if err != nil {
		t.Fatalf("opening %s: %v", name, err)
	}
	if _, err := h.Write(raw); err != nil {
		t.Fatalf("writing %s: %v", name, err)
	}
	h.Close()
}

func TestWALTornTailTruncated(t *testing.T) {
	cases := map[string][]byte{
		"garbage":      []byte("this is not a frame"),
		"short header": {0x05, 0x00},
		"bad crc": func() []byte {
			f, _ := encodeFrame(nil, []Record{rec(9, "doomed")})
			f[len(f)-1] ^= 0xff
			return f
		}(),
		"truncated frame": func() []byte {
			f, _ := encodeFrame(nil, []Record{rec(9, "doomed")})
			return f[:len(f)-3]
		}(),
		"zero length": {0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, tear := range cases {
		t.Run(name, func(t *testing.T) {
			fsys := NewMemFS()
			w, _, _ := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
			want := []Record{rec(1, "one"), rec(2, "two")}
			for _, r := range want {
				if err := w.Append(r); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			appendRaw(t, fsys, "wal/segment-00000000.wal", tear)

			w2, _, got := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
			wantRecs(t, got, want)
			// The tear is gone for good: append over it and reload.
			extra := rec(3, "after the tear")
			if err := w2.Append(extra); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if err := w2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			_, _, got = mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
			wantRecs(t, got, append(append([]Record(nil), want...), extra))
		})
	}
}

func TestWALTornTailDropsLaterSegments(t *testing.T) {
	// A tear in segment N invalidates every later segment: rotation
	// syncs before switching, so after a real crash nothing durable can
	// exist beyond the first tear. Build the illegal layout by hand.
	fsys := NewMemFS()
	if err := fsys.MkdirAll("wal", 0o755); err != nil {
		t.Fatal(err)
	}
	valid, _ := encodeFrame(nil, []Record{rec(1, "kept")})
	torn := append(append([]byte(nil), valid...), "tear"...)
	appendRaw(t, fsys, "wal/segment-00000000.wal", torn)
	orphan, _ := encodeFrame(nil, []Record{rec(2, "must not survive")})
	appendRaw(t, fsys, "wal/segment-00000001.wal", orphan)

	_, _, got := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	wantRecs(t, got, []Record{rec(1, "kept")})
	if _, err := fsys.ReadFile("wal/segment-00000001.wal"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("later segment survived a torn predecessor: %v", err)
	}
}

func TestWALRotationAndCompaction(t *testing.T) {
	fsys := NewMemFS()
	opts := WALOptions{Dir: "wal", FS: fsys, SegmentBytes: 64, CompactBytes: 1}
	w, _, _ := mustWAL(t, opts)
	var want []Record
	for i := 0; i < 20; i++ {
		r := rec(1, fmt.Sprintf("payload-%02d", i))
		want = append(want, r)
		if err := w.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	names, _ := fsys.ReadDir("wal")
	if len(names) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", names)
	}
	if !w.NeedsCompaction() {
		t.Fatal("NeedsCompaction false with a fat tail")
	}

	pos, err := w.Mark()
	if err != nil {
		t.Fatalf("Mark: %v", err)
	}
	// Records appended after Mark are beyond the snapshot boundary and
	// must survive the compaction as log records.
	after := rec(2, "post-mark")
	want = append(want, after)
	if err := w.Append(after); err != nil {
		t.Fatalf("Append after Mark: %v", err)
	}
	snapshot := []byte(`{"covers":"records 0-19"}`)
	if err := w.Compact(snapshot, pos); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, gotSnap, gotRecs := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	if !bytes.Equal(gotSnap, snapshot) {
		t.Fatalf("snapshot round-trip: got %q", gotSnap)
	}
	wantRecs(t, gotRecs, []Record{after})
	names, _ = fsys.ReadDir("wal")
	for _, n := range names {
		if idx, ok := parseIndexed(n, "segment-%08d.wal"); ok && idx < int(pos) {
			t.Fatalf("covered segment %s survived compaction", n)
		}
	}
}

// TestWALMarkAfterReplayOnly guards the lazy-open compaction bug: after
// a reboot the replayed segment has no open handle, but it is NOT
// covered by a snapshot at its own index — Mark must advance past it,
// or the next Load would replay the segment on top of the snapshot and
// double every record.
func TestWALMarkAfterReplayOnly(t *testing.T) {
	fsys := NewMemFS()
	w, _, _ := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	if err := w.Append(rec(1, "only-once")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reboot; compact without appending anything new.
	w2, _, recs := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	if len(recs) != 1 {
		t.Fatalf("replay: %d records", len(recs))
	}
	pos, err := w2.Mark()
	if err != nil {
		t.Fatalf("Mark: %v", err)
	}
	if err := w2.Compact([]byte(`{"state":"has only-once applied"}`), pos); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, snap, recs := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	if snap == nil {
		t.Fatal("snapshot lost")
	}
	if len(recs) != 0 {
		t.Fatalf("snapshot-covered records replayed again: %d", len(recs))
	}
}

func TestWALHealsInterruptedCompaction(t *testing.T) {
	// Crash after installing snapshot-2 but before pruning: the old
	// snapshot and covered segments are still on disk. Load must pick
	// the newest snapshot, prune the rest, and replay only the tail.
	fsys := NewMemFS()
	if err := fsys.MkdirAll("wal", 0o755); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, fsys, "wal/snapshot-00000000.json", []byte(`{"old":true}`))
	appendRaw(t, fsys, "wal/snapshot-00000002.json", []byte(`{"new":true}`))
	covered, _ := encodeFrame(nil, []Record{rec(1, "covered")})
	appendRaw(t, fsys, "wal/segment-00000000.wal", covered)
	appendRaw(t, fsys, "wal/segment-00000001.wal", covered)
	tail, _ := encodeFrame(nil, []Record{rec(2, "tail")})
	appendRaw(t, fsys, "wal/segment-00000002.wal", tail)
	appendRaw(t, fsys, "wal/snapshot-00000002.json.tmp", []byte("half-written"))

	_, snap, recs := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	if string(snap) != `{"new":true}` {
		t.Fatalf("wrong snapshot won: %q", snap)
	}
	wantRecs(t, recs, []Record{rec(2, "tail")})
	for _, stale := range []string{
		"wal/snapshot-00000000.json",
		"wal/segment-00000000.wal",
		"wal/segment-00000001.wal",
		"wal/snapshot-00000002.json.tmp",
	} {
		if _, err := fsys.ReadFile(stale); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("stale file %s survived recovery: %v", stale, err)
		}
	}
}

// syncCountFS counts fsyncs so the group-commit test can prove that N
// concurrent appends shared one sync.
type syncCountFS struct {
	FS
	syncs atomic.Int64
}

func (c *syncCountFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	h, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncCountHandle{File: h, fs: c}, nil
}

type syncCountHandle struct {
	File
	fs *syncCountFS
}

func (h *syncCountHandle) Sync() error {
	h.fs.syncs.Add(1)
	return h.File.Sync()
}

func TestWALGroupCommitCoalesces(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	fsys := &syncCountFS{FS: NewMemFS()}
	opts := WALOptions{Dir: "wal", FS: fsys, Fsync: FsyncGroup, FlushInterval: 2 * time.Millisecond, Clock: clk}
	w, _, _ := mustWAL(t, opts)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Append(rec(1, fmt.Sprintf("concurrent-%d", i)))
		}(i)
	}
	// Rendezvous: the flusher's flush window is open once it waits on
	// the manual clock; every frame lands inside the window because the
	// clock cannot move until we advance it.
	clk.BlockUntil(1)
	for {
		w.mu.Lock()
		written := w.writeSeq
		w.mu.Unlock()
		if written == n {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	clk.Advance(opts.FlushInterval)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if got := fsys.syncs.Load(); got != 1 {
		t.Fatalf("group commit used %d syncs for %d appends, want 1", got, n)
	}

	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, _, recs := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
}

func TestWALCloseReleasesGroupWaiters(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	fsys := NewMemFS()
	// A positive interval makes the flush window observable: the flusher
	// parks on the manual clock, so BlockUntil(1) is the rendezvous.
	w, _, _ := mustWAL(t, WALOptions{Dir: "wal", FS: fsys, Fsync: FsyncGroup,
		FlushInterval: 2 * time.Millisecond, Clock: clk})
	done := make(chan error, 1)
	go func() { done <- w.Append(rec(1, "in flight at close")) }()
	clk.BlockUntil(1) // the flush window is open; the frame is written
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		// The flusher's final round synced the frame before exiting, so
		// the append is both released and durable.
		if err != nil {
			t.Fatalf("Append across Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append still blocked after Close")
	}
	_, _, recs := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	wantRecs(t, recs, []Record{rec(1, "in flight at close")})
}

func TestWALPoisonedAfterWriteFailure(t *testing.T) {
	disk := NewMemFS()
	fsys := NewFaultFS(disk)
	w, _, _ := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	if err := w.Append(rec(1, "landed")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	fsys.FailAt(fsys.Ops()+1, 3) // next mutating op: torn 3-byte write
	if err := w.Append(rec(1, "torn")); err == nil {
		t.Fatal("Append over a dying disk succeeded")
	}
	// Sticky: a partial frame may be on disk; appending after it would
	// strand everything beyond the tear at recovery.
	if err := w.Append(rec(1, "after poison")); err == nil {
		t.Fatal("Append on a poisoned WAL succeeded")
	}
	if _, err := w.Mark(); err == nil {
		t.Fatal("Mark on a poisoned WAL succeeded")
	}
	w.Close()   //nolint:errcheck
	fsys.Kill() // reap any in-flight inner op before the "reboot"

	// Recovery over the survivor bytes: the acked record is intact, the
	// torn frame is gone.
	_, _, recs := mustWAL(t, WALOptions{Dir: "wal", FS: disk})
	wantRecs(t, recs, []Record{rec(1, "landed")})
}

func TestWALFrameTooLarge(t *testing.T) {
	fsys := NewMemFS()
	w, _, _ := mustWAL(t, WALOptions{Dir: "wal", FS: fsys})
	big := Record{Type: 1, Payload: make([]byte, maxFrame)}
	if err := w.Append(big); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// An encode-time rejection is not a storage failure: the WAL stays
	// usable.
	if err := w.Append(rec(1, "fine")); err != nil {
		t.Fatalf("Append after oversized reject: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestEncodeFrameBuildsTheFrameOnce: a frame is serialised into one
// buffer — header reserved, records appended in place, length and CRC
// patched — however many records (a whole commit group) it carries.
func TestEncodeFrameBuildsTheFrameOnce(t *testing.T) {
	recs := make([]Record, 128)
	for i := range recs {
		recs[i] = rec(byte(1+i%3), string(bytes.Repeat([]byte{0x78}, 100+i)))
	}
	var frame []byte
	if allocs := testing.AllocsPerRun(20, func() { frame, _ = encodeFrame(nil, recs) }); allocs != 1 {
		t.Fatalf("encodeFrame allocated %.0f times, want the frame and nothing else", allocs)
	}
	got, frames, valid := parseFrames(frame)
	if frames != 1 || valid != len(frame) || len(got) != len(recs) {
		t.Fatalf("round trip: %d frames, %d of %d bytes, %d records", frames, valid, len(frame), len(got))
	}
	for i := range got {
		if got[i].Type != recs[i].Type || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d changed in the round trip", i)
		}
	}
}

func TestParseFramesStopsAtFirstInvalid(t *testing.T) {
	a, _ := encodeFrame(nil, []Record{rec(1, "a")})
	b, _ := encodeFrame(nil, []Record{rec(2, "b")})
	data := append(append([]byte(nil), a...), b...)
	for cut := 0; cut <= len(data); cut++ {
		recs, _, valid := parseFrames(data[:cut])
		switch {
		case cut < len(a):
			if len(recs) != 0 || valid != 0 {
				t.Fatalf("cut %d: recs=%d valid=%d, want empty", cut, len(recs), valid)
			}
		case cut < len(data):
			if len(recs) != 1 || valid != len(a) {
				t.Fatalf("cut %d: recs=%d valid=%d, want 1/%d", cut, len(recs), valid, len(a))
			}
		default:
			if len(recs) != 2 || valid != len(data) {
				t.Fatalf("cut %d: recs=%d valid=%d, want 2/%d", cut, len(recs), valid, len(data))
			}
		}
	}
}

func TestAtomicWriteFileCleansUpOnFailure(t *testing.T) {
	inner := NewMemFS()
	fsys := NewFaultFS(inner)
	if err := AtomicWriteFile(fsys, "dir/f.json", []byte("v1")); err != nil {
		t.Fatalf("clean write: %v", err)
	}
	ops := fsys.Ops()
	for fail := 1; ; fail++ {
		target := NewFaultFS(inner)
		target.FailAt(fail, -1)
		err := AtomicWriteFile(target, "dir/f.json", []byte("v2"))
		if !target.Killed() {
			if err != nil {
				t.Fatalf("fault never fired but write failed: %v", err)
			}
			break
		}
		if err == nil {
			t.Fatalf("fail point %d: injected fault swallowed", fail)
		}
		// The visible file is either intact v1 or fully v2 — never torn.
		got, rerr := inner.ReadFile("dir/f.json")
		if rerr != nil {
			t.Fatalf("fail point %d: file vanished: %v", fail, rerr)
		}
		if s := string(got); s != "v1" && s != "v2" {
			t.Fatalf("fail point %d: torn file %q", fail, s)
		}
		// Restore v1 for the next round if the rename landed.
		if string(got) == "v2" {
			if err := AtomicWriteFile(inner, "dir/f.json", []byte("v1")); err != nil {
				t.Fatal(err)
			}
		}
		if fail > ops+4 {
			t.Fatal("fault schedule never ran clean")
		}
	}
}
