package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mood/internal/mathx"
	"mood/internal/trace"
)

// randomState draws a snapshot state in the decoder's canonical form
// (empty lists nil, maps non-nil as applySnapshot and captureState leave
// them), covering what a capture can hold: empty sections, fragments
// without records, quarantine accounting, history at its cap, sync and
// async idempotency entries, done and failed jobs — and fragments with
// an empty owner, which no commit writes but the codec round-trips.
func randomState(rng *mathx.Rand, historyCap int) persistedState {
	str := func(prefix string) string { return fmt.Sprintf("%s-%d", prefix, rng.Intn(1000)) }
	records := func(n int) []trace.Record {
		if n == 0 {
			return nil
		}
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{Lat: rng.NormFloat64() * 90, Lon: rng.NormFloat64() * 180,
				TS: rng.Int63n(2_000_000_000) - 1000}
		}
		return recs
	}
	resp := func() UploadResponse {
		r := UploadResponse{Accepted: rng.Intn(500), Rejected: rng.Intn(50), Pieces: rng.Intn(4)}
		for i := 0; i < r.Pieces; i++ {
			r.Mechanisms = append(r.Mechanisms, str("lppm"))
		}
		return r
	}
	// Each section is empty one time in four.
	some := func(max int) int {
		if rng.Intn(4) == 0 {
			return 0
		}
		return 1 + rng.Intn(max)
	}

	st := persistedState{
		Users:    map[string]*UserStats{},
		Pseudo:   rng.Intn(1 << 20),
		Retrains: rng.Int63n(100),
		FragSeq:  rng.Int63n(1 << 40),
	}
	for i, n := 0, some(40); i < n; i++ {
		f := publishedFrag{Seq: rng.Int63n(1 << 40), Owner: str("user"),
			Trace: trace.Trace{User: str("pub"), Records: records(rng.Intn(60))}}
		if rng.Intn(8) == 0 {
			f.Owner = "" // no commit writes one, but the codec carries it
		}
		st.Fragments = append(st.Fragments, f)
	}
	for i, n := 0, some(30); i < n; i++ {
		st.Users[str("user")] = &UserStats{
			Uploads: rng.Intn(100), RecordsIn: rng.Intn(10000), RecordsPublished: rng.Intn(10000),
			RecordsRejected: rng.Intn(100), RecordsQuarantined: rng.Intn(100),
			Pieces: rng.Intn(100), PiecesQuarantined: rng.Intn(10),
		}
	}
	if n := some(10); n > 0 {
		st.History = map[string]segments{}
		for i := 0; i < n; i++ {
			size := rng.Intn(historyCap)
			if rng.Intn(3) == 0 {
				size = historyCap
			}
			st.History[str("user")] = segments{records(size)} // a history decodes as one segment
		}
	}
	for i, n := 0, some(20); i < n; i++ {
		pe := persistedIdem{Key: idemKey(str("user"), str("key")), FP: rng.Uint64(), Resp: resp()}
		if rng.Intn(3) == 0 {
			pe.JobID = str("job")
		}
		st.Idempotency = append(st.Idempotency, pe)
	}
	for i, n := 0, some(10); i < n; i++ {
		j := JobStatus{ID: str("job"), User: str("user"), State: JobDone}
		if rng.Intn(3) == 0 {
			j.State, j.Error = JobFailed, "engine exploded"
		} else {
			r := resp()
			j.Result = &r
		}
		st.Jobs = append(st.Jobs, j)
	}
	return st
}

// smallState is a random state of a few hundred bytes: small enough to
// try every truncation and every flipped bit of, and for the fuzzer to
// mutate and minimise quickly.
func smallState(rng *mathx.Rand) persistedState {
	st := randomState(rng, 4)
	st.Fragments = st.Fragments[:min(len(st.Fragments), 3)]
	for i := range st.Fragments {
		recs := &st.Fragments[i].Trace.Records
		*recs = (*recs)[:min(len(*recs), 3)]
	}
	for _, u := range sortedKeys(st.Users)[min(len(st.Users), 2):] {
		delete(st.Users, u)
	}
	for _, u := range sortedKeys(st.History)[min(len(st.History), 2):] {
		delete(st.History, u)
	}
	st.Idempotency = st.Idempotency[:min(len(st.Idempotency), 2)]
	st.Jobs = st.Jobs[:min(len(st.Jobs), 2)]
	return st
}

// TestSnapshotCodecRoundTrip: over random states, decode(encode(s)) is
// s, encode(decode(encode(s))) is the same bytes, the buffer was sized
// exactly, and the bytes do not depend on map insertion order.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	rng := mathx.NewRand(24)
	states := []persistedState{{Users: map[string]*UserStats{}}} // every section empty
	for i := 0; i < 200; i++ {
		states = append(states, randomState(rng, 64))
	}
	for i, st := range states {
		enc := encodeSnapshot(&st)
		if len(enc) != cap(enc) {
			t.Fatalf("state %d: buffer of %d bytes for a snapshot of %d: the sizing pass is off", i, cap(enc), len(enc))
		}
		got, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("state %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("state %d: round trip changed the state:\n got %+v\nwant %+v", i, got, st)
		}
		if again := encodeSnapshot(&got); !bytes.Equal(again, enc) {
			t.Fatalf("state %d: re-encoding the decoded state changed the bytes", i)
		}
		// The same state held in maps built in another order.
		shuffled := st
		shuffled.Users = map[string]*UserStats{}
		for _, u := range sortedKeys(st.Users) {
			shuffled.Users[u] = st.Users[u]
		}
		if st.History != nil {
			shuffled.History = map[string]segments{}
			keys := sortedKeys(st.History)
			for j := len(keys) - 1; j >= 0; j-- {
				shuffled.History[keys[j]] = st.History[keys[j]]
			}
		}
		if again := encodeSnapshot(&shuffled); !bytes.Equal(again, enc) {
			t.Fatalf("state %d: the bytes depend on map order", i)
		}
	}
}

// TestSnapshotRecordsDoNotAlias: the decoded record lists share one
// array; appending to one must copy, never write into its neighbour.
func TestSnapshotRecordsDoNotAlias(t *testing.T) {
	st := persistedState{
		Users:     map[string]*UserStats{},
		Fragments: []publishedFrag{{Seq: 1, Trace: trace.New("pub-1", sampleRecords(3))}},
		History:   map[string]segments{"alice": {sampleRecords(2)}, "bob": {sampleRecords(4)}},
	}
	got, err := decodeSnapshot(encodeSnapshot(&st))
	if err != nil {
		t.Fatal(err)
	}
	for _, recs := range [][]trace.Record{got.Fragments[0].Trace.Records, got.History["alice"][0], got.History["bob"][0]} {
		if len(recs) != cap(recs) {
			t.Fatalf("a decoded list of %d records has capacity %d", len(recs), cap(recs))
		}
	}
	_ = append(got.History["alice"][0], trace.Record{Lat: -1, Lon: -1, TS: -1})
	if !reflect.DeepEqual(got.History["bob"], st.History["bob"]) {
		t.Fatal("appending to one history wrote into another")
	}
}

// TestSnapshotSegmentsEncodeAsOneList: a history held as segments
// encodes to the bytes of the same history in one array, and so to the
// bytes the snapshot encoder wrote when a history was one array: over
// 100 seeded states, each history cut into random segments (empty ones
// included), the snapshots hash to the digest that encoder gave.
func TestSnapshotSegmentsEncodeAsOneList(t *testing.T) {
	const oneArrayDigest = "c2be019cb428624c7e4a3821d9bcff3801fcc06c9e630b56369d45ed027c0fd1"
	rng, cuts := mathx.NewRand(49), mathx.NewRand(50)
	h := sha256.New()
	for i := 0; i < 100; i++ {
		st := randomState(rng, 300)
		whole := encodeSnapshot(&st)
		for u, segs := range st.History {
			recs := segs.join()
			var cut segments
			for len(recs) > 0 || cuts.Intn(4) == 0 {
				n := cuts.Intn(len(recs) + 1)
				cut, recs = append(cut, recs[:n]), recs[n:]
			}
			st.History[u] = cut
		}
		enc := encodeSnapshot(&st)
		if !bytes.Equal(enc, whole) {
			t.Fatalf("state %d: the segmented histories encode to other bytes than the joined ones", i)
		}
		if len(enc) != cap(enc) {
			t.Fatalf("state %d: buffer of %d bytes for a snapshot of %d: the sizing pass is off", i, cap(enc), len(enc))
		}
		h.Write(enc)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != oneArrayDigest {
		t.Fatalf("the snapshots hash to %s, the one-array encoder's to %s", got, oneArrayDigest)
	}
}

// sealSnapshot puts a valid header in front of a body.
func sealSnapshot(body []byte) []byte {
	b := make([]byte, snapshotHeader, snapshotHeader+len(body))
	copy(b, snapshotMagic[:])
	b[4] = snapshotVersion
	binary.LittleEndian.PutUint64(b[5:], uint64(len(body)))
	binary.LittleEndian.PutUint32(b[13:], crc32.Checksum(body, castagnoli))
	return append(b, body...)
}

// decodeBounded decodes and fails the test if the decoder allocated out
// of proportion to its input: every count is bounded by the remaining
// payload before anything is allocated for it, so what a decode
// allocates is a small multiple of the bytes it was given (a 24-byte
// record per 17 bytes, a 64-byte fragment per 4) — and never what a
// hostile count asks for.
func decodeBounded(t *testing.T, data []byte) (persistedState, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := decodeSnapshot(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); got > limit {
		t.Fatalf("decoding %d bytes allocated %d", len(data), got)
	}
	return st, err
}

// TestSnapshotCodecCorruption: every truncation and every flipped bit of
// a real snapshot, an unknown version, trailing bytes and hostile counts
// behind a valid checksum all fail to decode — no panic, no ballooning.
func TestSnapshotCodecCorruption(t *testing.T) {
	st := smallState(mathx.NewRand(7))
	full := encodeSnapshot(&st)
	if _, err := decodeSnapshot(full); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := decodeSnapshot(full[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(full))
		}
	}
	for bit := 0; bit < 8*len(full); bit++ {
		flipped := append([]byte(nil), full...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeSnapshot(flipped); err == nil {
			t.Fatalf("flipping bit %d decoded cleanly", bit)
		}
	}
	if _, err := decodeSnapshot(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("a trailing byte decoded cleanly")
	}
	newer := append([]byte(nil), full...)
	newer[4] = snapshotVersion + 1
	if _, err := decodeSnapshot(newer); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: %v", err)
	}

	// Behind a valid checksum: a trailing byte in the body, a count far
	// beyond the payload in each section, records the declared total does
	// not cover and a total the lists do not use up.
	body := full[snapshotHeader:]
	if _, err := decodeBounded(t, sealSnapshot(append(append([]byte(nil), body...), 0))); err == nil {
		t.Fatal("a trailing byte inside the body decoded cleanly")
	}
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for zeros := 3; zeros <= 8; zeros++ { // nRecords, nFrags, nUsers, nHistory, nIdem, nJobs
		hostile := append(make([]byte, zeros), huge...)
		if _, err := decodeBounded(t, sealSnapshot(hostile)); err == nil {
			t.Fatalf("a hostile count behind %d empty fields decoded cleanly", zeros)
		}
	}
	one := persistedState{Users: map[string]*UserStats{},
		Fragments: []publishedFrag{{Seq: 1, Trace: trace.New("pub-1", sampleRecords(1))}}}
	body = encodeSnapshot(&one)[snapshotHeader:]
	for _, total := range []byte{0, 2} {
		patched := append([]byte(nil), body...)
		patched[3] = total // nRecords follows three one-byte watermarks
		if _, err := decodeSnapshot(sealSnapshot(patched)); err == nil {
			t.Fatalf("one record under a declared total of %d decoded cleanly", total)
		}
	}
}

// FuzzSnapshotDecode: adversarial bytes never panic the decoder and
// never make it allocate out of proportion to their length, with or
// without a valid header in front of them; what does decode re-encodes
// to a snapshot that decodes to the same state; and one flipped bit
// anywhere in a valid snapshot fails its checksum (or its header).
func FuzzSnapshotDecode(f *testing.F) {
	rng := mathx.NewRand(1)
	for i := 0; i < 4; i++ {
		st := smallState(rng)
		f.Add(encodeSnapshot(&st), uint(i*977))
	}
	f.Add([]byte("{}"), uint(0))
	f.Add([]byte{}, uint(0))
	fallback := smallState(rng)
	f.Fuzz(func(t *testing.T, data []byte, flip uint) {
		valid := encodeSnapshot(&fallback)
		// Measuring allocation stops the world, which in a fuzz worker
		// takes milliseconds: one input in 32 is measured.
		decode := decodeSnapshot
		if flip%32 == 0 {
			decode = func(in []byte) (persistedState, error) { return decodeBounded(t, in) }
		}
		for _, in := range [][]byte{data, sealSnapshot(data)} {
			st, err := decode(in)
			if err != nil {
				continue
			}
			valid = encodeSnapshot(&st)
			again, err := decodeSnapshot(valid)
			if err != nil || !reflect.DeepEqual(again, st) {
				t.Fatalf("a decoded state does not survive its own round trip: %v", err)
			}
		}
		bit := flip % uint(8*len(valid))
		valid[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeSnapshot(valid); err == nil {
			t.Fatalf("flipping bit %d of a valid snapshot decoded cleanly", bit)
		}
	})
}

// benchState is the state one node of bench's ingest-echo-cluster holds
// at a mid-run checkpoint: 3000 chunks of 50 records from 200 users, each
// chunk keyed, no history (the echo engine has no retrainer).
func benchState() persistedState {
	rng := mathx.NewRand(1)
	st := persistedState{Users: map[string]*UserStats{}, Pseudo: 3000, FragSeq: 3000}
	for i := 0; i < 3000; i++ {
		user := fmt.Sprintf("user-%04d", i%200)
		recs := make([]trace.Record, 50)
		for j := range recs {
			recs[j] = trace.Record{Lat: 45 + rng.Float64(), Lon: 4 + rng.Float64(), TS: 1_700_000_000 + int64(60*(50*i+j))}
		}
		st.Fragments = append(st.Fragments, publishedFrag{Seq: int64(i + 1), Owner: user,
			Trace: trace.Trace{User: fmt.Sprintf("pub-%06d", i+1), Records: recs}})
		us := st.Users[user]
		if us == nil {
			us = &UserStats{}
			st.Users[user] = us
		}
		us.Uploads++
		us.RecordsIn += 50
		us.RecordsPublished += 50
		us.Pieces++
		st.Idempotency = append(st.Idempotency, persistedIdem{Key: idemKey(user, fmt.Sprintf("batch-%d-chunk-%d", i/100, i%100)),
			FP: rng.Uint64(), Resp: UploadResponse{Accepted: 50, Pieces: 1, Mechanisms: []string{"echo"}}})
	}
	return st
}

// BenchmarkSnapshotEncode and BenchmarkSnapshotDecode are the per-layer
// probes of a checkpoint's and a boot's codec cost, at the state shape
// of bench's ingest-echo-cluster.
func BenchmarkSnapshotEncode(b *testing.B) {
	st := benchState()
	b.SetBytes(int64(len(encodeSnapshot(&st))))
	b.ReportAllocs()
	for b.Loop() {
		encodeSnapshot(&st)
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	st := benchState()
	data := encodeSnapshot(&st)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}
