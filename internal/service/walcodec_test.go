package service

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"mood/internal/mathx"
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
		got, err := decodeUploadCommit(encodeUploadCommit(nil, c))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("case %d: round trip changed the record:\n got %+v\nwant %+v", i, got, c)
		}
	}
}

// oracleEncodeUploadCommit is the commit layout written straight out,
// with no sizing: the sized encoder must produce these bytes exactly,
// or logs already on disk stop decoding.
func oracleEncodeUploadCommit(c walUploadCommit) []byte {
	b := []byte{walCommitVersion}
	b = appendString(b, c.User)
	for _, v := range []int{c.RecordsIn, c.Accepted, c.Rejected, int(c.Pseudo), len(c.Frags)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, f := range c.Frags {
		b = binary.AppendVarint(b, f.Seq)
		b = appendString(b, f.Owner)
		b = appendString(b, f.Trace.User)
		b = appendRecordBodies(binary.AppendUvarint(b, uint64(len(f.Trace.Records))), f.Trace.Records)
	}
	return appendRecordBodies(binary.AppendUvarint(b, uint64(len(c.History))), c.History)
}

// TestWALCommitEncodeExactlySized pins the commit buffer to its content
// on realistic commits — Unix-second timestamps zig-zag to 5-byte
// varints, so a record takes 21 bytes, not the 17 an estimate assumed —
// and the encode to one allocation: the buffer is never regrown.
func TestWALCommitEncodeExactlySized(t *testing.T) {
	rng := mathx.NewRand(3)
	recs := func(n int) []trace.Record {
		rs := make([]trace.Record, n)
		for i := range rs {
			rs[i] = trace.Record{Lat: 45 + rng.Float64(), Lon: 4 + rng.Float64(), TS: 1_700_000_000 + int64(i)*60}
		}
		return rs
	}
	for i := 0; i < 50; i++ {
		c := walUploadCommit{
			User: "user-" + strings.Repeat("x", rng.Intn(40)), RecordsIn: 50 + rng.Intn(1000),
			Accepted: rng.Intn(50), Rejected: rng.Intn(3), Pseudo: int64(rng.Intn(1 << 20)),
			History: recs(rng.Intn(200)),
		}
		for f := rng.Intn(6); f > 0; f-- {
			c.Frags = append(c.Frags, publishedFrag{Seq: int64(rng.Intn(1 << 30)), Owner: c.User,
				Trace: trace.Trace{User: "anon-" + strings.Repeat("y", rng.Intn(12)), Records: recs(rng.Intn(100))}})
		}
		b := encodeUploadCommit(nil, c)
		if len(b) != cap(b) {
			t.Fatalf("commit %d: %d bytes in a %d-byte buffer", i, len(b), cap(b))
		}
		if want := oracleEncodeUploadCommit(c); !bytes.Equal(b, want) {
			t.Fatalf("commit %d: the sized encoder changed the layout", i)
		}
		if allocs := testing.AllocsPerRun(5, func() { encodeUploadCommit(nil, c) }); allocs != 1 {
			t.Fatalf("commit %d: %v allocations per encode, want 1", i, allocs)
		}
	}
}

// TestWALCommitCodecCorruption feeds the decoder every truncation of a
// real record plus hostile lengths: it must return errors, never panic
// or over-allocate.
func TestWALCommitCodecCorruption(t *testing.T) {
	full := encodeUploadCommit(nil, walUploadCommit{
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
