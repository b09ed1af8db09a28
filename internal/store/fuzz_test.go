package store

import (
	"bytes"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes (further truncated at an
// arbitrary point) to the WAL as a segment file and asserts the
// recovery contract: Load never panics and never errors on corruption —
// it recovers exactly the valid frame prefix — and the recovered log
// accepts new appends whose records survive a second recovery after the
// prefix, in order.
func FuzzWALReplay(f *testing.F) {
	// Seeds: an empty log, plain garbage, and valid frames with
	// assorted tears — plus every committed file under testdata/fuzz.
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("not a frame at all"), uint16(6))
	one, err := encodeFrame(nil, []Record{{Type: 1, Payload: []byte("seed-record")}})
	if err != nil {
		f.Fatal(err)
	}
	two, err := encodeFrame(nil, []Record{
		{Type: 2, Payload: []byte("batch-a")},
		{Type: 3, Payload: nil},
	})
	if err != nil {
		f.Fatal(err)
	}
	full := append(append([]byte(nil), one...), two...)
	f.Add(full, uint16(len(full)))
	f.Add(full, uint16(len(one)+3)) // tear inside the second frame
	f.Add(full, uint16(2))          // tear inside the first header
	flipped := append([]byte(nil), full...)
	flipped[len(one)+9] ^= 0x80 // corrupt the second frame's payload
	f.Add(flipped, uint16(len(flipped)))
	zeros := make([]byte, 64)
	f.Add(zeros, uint16(64))

	f.Fuzz(func(t *testing.T, data []byte, trunc uint16) {
		cut := int(trunc)
		if cut > len(data) {
			cut = len(data)
		}
		disk := data[:cut]

		fsys := NewMemFS()
		if err := fsys.MkdirAll("wal", 0o755); err != nil {
			t.Fatal(err)
		}
		if len(disk) > 0 {
			appendRaw(t, fsys, "wal/segment-00000000.wal", disk)
		}

		w, err := NewWAL(WALOptions{Dir: "wal", FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		snap, recs, err := w.Load()
		if err != nil {
			t.Fatalf("Load over arbitrary bytes errored: %v", err)
		}
		if snap != nil {
			t.Fatalf("no snapshot on disk, Load returned %d bytes", len(snap))
		}

		// Prefix consistency: recovery yields exactly what the valid
		// frame prefix of the surviving bytes decodes to.
		wantRecs, _, _ := parseFrames(disk)
		if len(recs) != len(wantRecs) {
			t.Fatalf("recovered %d records, frame prefix holds %d", len(recs), len(wantRecs))
		}
		for i := range wantRecs {
			if recs[i].Type != wantRecs[i].Type || !bytes.Equal(recs[i].Payload, wantRecs[i].Payload) {
				t.Fatalf("record %d diverges from the frame prefix", i)
			}
		}

		// The recovered log is live: a new append lands after the
		// prefix and both survive the next recovery.
		marker := Record{Type: 0xEE, Payload: []byte("post-recovery marker")}
		if err := w.Append(marker); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		w2, err := NewWAL(WALOptions{Dir: "wal", FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		_, recs2, err := w2.Load()
		if err != nil {
			t.Fatalf("second Load: %v", err)
		}
		if len(recs2) != len(wantRecs)+1 {
			t.Fatalf("second recovery: %d records, want %d", len(recs2), len(wantRecs)+1)
		}
		last := recs2[len(recs2)-1]
		if last.Type != marker.Type || !bytes.Equal(last.Payload, marker.Payload) {
			t.Fatal("marker record lost or corrupted across recovery")
		}
		// The truncated tail must stay gone: the bytes before the marker
		// are still exactly the valid prefix.
		for i := range wantRecs {
			if recs2[i].Type != wantRecs[i].Type || !bytes.Equal(recs2[i].Payload, wantRecs[i].Payload) {
				t.Fatalf("record %d changed across recovery", i)
			}
		}
	})
}
