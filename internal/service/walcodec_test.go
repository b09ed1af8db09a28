package service

import (
	"math"
	"reflect"
	"testing"

	"mood/internal/trace"
)

func TestWALCommitCodecRoundTrip(t *testing.T) {
	cases := []walUploadCommit{
		{User: "alice"},
		{
			User:      "bob",
			RecordsIn: 50, Accepted: 48, Rejected: 2, Pseudo: 7,
			Frags: []publishedFrag{
				{Seq: 3, Owner: "bob", Trace: trace.Trace{User: "pub-000007", Records: []trace.Record{
					{Lat: 45.70000001, Lon: 4.8, TS: 1000},
					{Lat: -90, Lon: 180, TS: -5},
					{Lat: math.MaxFloat64, Lon: math.SmallestNonzeroFloat64, TS: math.MaxInt64},
				}}},
				{Seq: 4, Owner: "bob", Trace: trace.Trace{User: "anon-ff", Records: nil}},
			},
			History: []trace.Record{{Lat: 1.5, Lon: 2.5, TS: 42}},
		},
	}
	for i, c := range cases {
		got, err := decodeUploadCommit(encodeUploadCommit(c))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("case %d: round trip changed the record:\n got %+v\nwant %+v", i, got, c)
		}
	}
}

// TestWALCommitCodecCorruption feeds the decoder every truncation of a
// real record plus hostile lengths: it must return errors, never panic
// or over-allocate.
func TestWALCommitCodecCorruption(t *testing.T) {
	full := encodeUploadCommit(walUploadCommit{
		User: "alice", RecordsIn: 2, Accepted: 2,
		Frags: []publishedFrag{{Seq: 1, Owner: "alice", Trace: trace.Trace{
			User: "pub-000001", Records: []trace.Record{{Lat: 1, Lon: 2, TS: 3}, {Lat: 4, Lon: 5, TS: 6}},
		}}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := decodeUploadCommit(full[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(full))
		}
	}
	if _, err := decodeUploadCommit(append(append([]byte(nil), full...), 0xff)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
	// A record count far beyond the payload must be rejected before any
	// allocation happens.
	hostile := []byte{walCommitVersion}
	hostile = append(hostile, 0)          // empty user
	hostile = append(hostile, 0, 0, 0, 0) // counts, pseudo
	hostile = append(hostile, 0)          // no frags
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := decodeUploadCommit(hostile); err == nil {
		t.Fatal("hostile history count decoded cleanly")
	}
	if _, err := decodeUploadCommit([]byte{99}); err == nil {
		t.Fatal("unknown version decoded cleanly")
	}
	if _, err := decodeUploadCommit(nil); err == nil {
		t.Fatal("empty payload decoded cleanly")
	}
}
