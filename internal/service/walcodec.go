package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"

	"mood/internal/trace"
)

// The durability tier's binary codec: the upload-commit WAL record and
// the snapshot, built from the same primitives.
//
// The commit record rides on the hottest path in the server — one per
// acknowledged upload, carrying every published fragment's records —
// and the snapshot carries every record of every fragment and of every
// user's history, encoded whenever the log is compacted. JSON float
// formatting of coordinates dominated both (shortest-round-trip float
// printing is ~30× a fixed 8-byte store). The other record types
// (idempotency, job status, quarantine, retrain) are tiny or rare and
// stay JSON.
//
// Primitives (little-endian, uvarint/varint from encoding/binary):
//
//	records = uvarint n, then per record: f64 lat | f64 lon | varint ts
//	str     = uvarint length, then the bytes
//	frag    = varint seq | str owner | str user | records
//
// Commit record:
//
//	u8 version (currently 1)
//	str user | uvarint recordsIn, accepted, rejected | uvarint pseudo
//	uvarint nFrags | frags
//	history records
//
// Snapshot (the whole of a snapshot file; nothing follows the body):
//
//	"MSNP" | u8 version (currently 1) | u64 bodyLen | u32 CRC32C(body)
//	body:
//	  uvarint pseudo, retrains, fragSeq   the watermarks
//	  uvarint nRecords                    records in the whole body
//	  uvarint nFrags   | frags            in shard, then insertion order
//	  uvarint nUsers   | str id | 7 uvarint counters, in UserStats order
//	  uvarint nHistory | str user | records
//	  uvarint nIdem    | str key | u64 fp | str jobID | resp
//	  uvarint nJobs    | str id | str user | str state | str error |
//	                     u8 hasResult | resp when 1
//	resp = uvarint accepted, rejected, pieces | uvarint n | n str
//
// Users and history are written in ascending key order and everything
// else in the order it is held, so equal states encode to equal bytes.
// An empty record list or mechanism list decodes as nil.
//
// Decode is defensive. The snapshot carries its own length and checksum
// (nothing frames a snapshot file, unlike a commit record, which sits in
// a CRC-checked WAL frame), and in both every count is bounded by the
// remaining payload before allocation, so adversarial bytes cannot
// balloon memory or panic. The snapshot's records are decoded into one
// array of nRecords, each list a slice of it with capacity capped to its
// length, so nothing that keeps a list can write into its neighbour. A
// history is written as the concatenation of its segments and decodes
// as one segment (recordHistory appends further uploads as segments of
// their own).

const (
	walCommitVersion = 1
	minRecordSize    = 17
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendRecordBodies appends the records of a records list, without its
// count.
func appendRecordBodies(b []byte, recs []trace.Record) []byte {
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Lat))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Lon))
		b = binary.AppendVarint(b, r.TS)
	}
	return b
}

// layoutWriter writes a commit record or a snapshot body. Each layout is
// described once (writeCommit, writeBody) and run twice: a sizing pass
// that only adds up size, then the pass that appends to a buffer of
// exactly that size — so an encode allocates its output once and never
// grows it, and the two passes cannot drift apart.
type layoutWriter struct {
	b      []byte
	size   int
	sizing bool
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (w *layoutWriter) u8(v byte) {
	if w.sizing {
		w.size++
		return
	}
	w.b = append(w.b, v)
}

func (w *layoutWriter) uvarint(v uint64) {
	if w.sizing {
		w.size += uvarintLen(v)
		return
	}
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *layoutWriter) varint(v int64) {
	if w.sizing {
		w.size += uvarintLen(uint64(v<<1) ^ uint64(v>>63)) // zigzag, as AppendVarint
		return
	}
	w.b = binary.AppendVarint(w.b, v)
}

func (w *layoutWriter) uint64(v uint64) {
	if w.sizing {
		w.size += 8
		return
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *layoutWriter) string(s string) {
	if w.sizing {
		w.size += uvarintLen(uint64(len(s))) + len(s)
		return
	}
	w.b = appendString(w.b, s)
}

func (w *layoutWriter) records(recs []trace.Record) { w.segments(segments{recs}) }

// segments writes a segmented list as the one records list it stands
// for: the count of them all, then each segment's records back to back.
func (w *layoutWriter) segments(segs segments) {
	w.uvarint(uint64(segs.len()))
	for _, seg := range segs {
		if !w.sizing {
			w.b = appendRecordBodies(w.b, seg)
			continue
		}
		w.size += 16 * len(seg)
		for _, r := range seg {
			w.varint(r.TS)
		}
	}
}

// encodeUploadCommit serialises one commit record into dst's spare
// capacity, or into a new buffer of exactly its size when dst has too
// little: the layout (writeCommit) runs once to size, once to append, as
// the snapshot's does.
func encodeUploadCommit(dst []byte, c walUploadCommit) []byte {
	w := layoutWriter{sizing: true}
	w.writeCommit(&c)
	if cap(dst) < w.size {
		dst = make([]byte, 0, w.size)
	}
	w.b = dst[:0]
	w.sizing = false
	w.writeCommit(&c)
	return w.b
}

// writeCommit is the commit record's layout (see the top of the file).
func (w *layoutWriter) writeCommit(c *walUploadCommit) {
	w.u8(walCommitVersion)
	w.string(c.User)
	w.uvarint(uint64(c.RecordsIn))
	w.uvarint(uint64(c.Accepted))
	w.uvarint(uint64(c.Rejected))
	w.uvarint(uint64(c.Pseudo))
	w.uvarint(uint64(len(c.Frags)))
	for i := range c.Frags {
		f := &c.Frags[i]
		w.varint(f.Seq)
		w.string(f.Owner)
		w.string(f.Trace.User)
		w.records(f.Trace.Records)
	}
	w.records(c.History)
}

var errWALCommitCorrupt = errors.New("service: corrupt upload-commit record")

// walReader is a bounds-checked cursor over a commit payload or a
// snapshot body. arena, when set, is what records() carves its results
// from instead of allocating one array per list.
type walReader struct {
	b     []byte
	err   error
	arena []trace.Record
}

func (r *walReader) fail() {
	if r.err == nil {
		r.err = errWALCommitCorrupt
	}
}

func (r *walReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) string() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *walReader) uint64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *walReader) float64() float64 { return math.Float64frombits(r.uint64()) }

func (r *walReader) records() []trace.Record {
	// Each record is at least 17 bytes (two fixed floats + 1-byte
	// varint), so a count beyond remaining/17 is corrupt — reject before
	// allocating.
	n := r.count(minRecordSize)
	if n == 0 {
		return nil
	}
	var recs []trace.Record
	if r.arena == nil {
		recs = make([]trace.Record, n)
	} else if n > len(r.arena) {
		// More records than the snapshot declared.
		r.fail()
		return nil
	} else {
		recs, r.arena = r.arena[:n:n], r.arena[n:]
	}
	for i := range recs {
		recs[i] = trace.Record{Lat: r.float64(), Lon: r.float64(), TS: r.varint()}
	}
	return recs
}

// count reads a list's element count and bounds it by what the
// remaining payload could hold at minSize bytes an element, so the
// caller may allocate for it.
func (r *walReader) count(minSize int) int {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *walReader) frags() []publishedFrag {
	// A fragment is at least 4 bytes: seq, two string lengths, a count.
	n := r.count(4)
	if n == 0 {
		return nil
	}
	frags := make([]publishedFrag, n)
	for i := range frags {
		f := &frags[i]
		f.Seq = r.varint()
		f.Owner = r.string()
		f.Trace.User = r.string()
		f.Trace.Records = r.records()
		if r.err != nil {
			return nil
		}
	}
	return frags
}

// decodeUploadCommit parses one commit record.
func decodeUploadCommit(payload []byte) (walUploadCommit, error) {
	var c walUploadCommit
	if len(payload) == 0 {
		return c, errWALCommitCorrupt
	}
	if payload[0] != walCommitVersion {
		//mood:allow hotalloc -- cold branch: runs once per corrupt/foreign segment, never on the per-upload path
		return c, fmt.Errorf("service: upload-commit record version %d unsupported", payload[0])
	}
	r := &walReader{b: payload[1:]}
	c.User = r.string()
	c.RecordsIn = int(r.uvarint())
	c.Accepted = int(r.uvarint())
	c.Rejected = int(r.uvarint())
	c.Pseudo = int64(r.uvarint())
	c.Frags = r.frags()
	c.History = r.records()
	if r.err != nil {
		return c, r.err
	}
	if len(r.b) != 0 {
		return c, errWALCommitCorrupt
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// The snapshot.

const (
	snapshotVersion = 1
	// snapshotHeader is magic, version, body length and body checksum.
	snapshotHeader = 4 + 1 + 8 + 4
)

var (
	snapshotMagic = [4]byte{'M', 'S', 'N', 'P'}
	castagnoli    = crc32.MakeTable(crc32.Castagnoli)

	errSnapshotCorrupt = errors.New("service: decoding state: corrupt snapshot")
)

func (w *layoutWriter) resp(resp *UploadResponse) {
	w.uvarint(uint64(resp.Accepted))
	w.uvarint(uint64(resp.Rejected))
	w.uvarint(uint64(resp.Pieces))
	w.uvarint(uint64(len(resp.Mechanisms)))
	for _, m := range resp.Mechanisms {
		w.string(m)
	}
}

// userCounters lists a UserStats' counters in their wire order.
func userCounters(us *UserStats) [7]*int {
	return [7]*int{&us.Uploads, &us.RecordsIn, &us.RecordsPublished, &us.RecordsRejected,
		&us.RecordsQuarantined, &us.Pieces, &us.PiecesQuarantined}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeBody is the snapshot body's layout. users and history are the
// two maps' keys, sorted.
func (w *layoutWriter) writeBody(st *persistedState, users, history []string) {
	nRecords := 0
	for i := range st.Fragments {
		nRecords += len(st.Fragments[i].Trace.Records)
	}
	for _, segs := range st.History {
		nRecords += segs.len()
	}
	w.uvarint(uint64(st.Pseudo))
	w.uvarint(uint64(st.Retrains))
	w.uvarint(uint64(st.FragSeq))
	w.uvarint(uint64(nRecords))

	w.uvarint(uint64(len(st.Fragments)))
	for i := range st.Fragments {
		f := &st.Fragments[i]
		w.varint(f.Seq)
		w.string(f.Owner)
		w.string(f.Trace.User)
		w.records(f.Trace.Records)
	}
	w.uvarint(uint64(len(users)))
	for _, u := range users {
		w.string(u)
		for _, c := range userCounters(st.Users[u]) {
			w.uvarint(uint64(*c))
		}
	}
	w.uvarint(uint64(len(history)))
	for _, u := range history {
		w.string(u)
		w.segments(st.History[u])
	}
	w.uvarint(uint64(len(st.Idempotency)))
	for i := range st.Idempotency {
		pe := &st.Idempotency[i]
		w.string(pe.Key)
		w.uint64(pe.FP)
		w.string(pe.JobID)
		w.resp(&pe.Resp)
	}
	w.uvarint(uint64(len(st.Jobs)))
	for i := range st.Jobs {
		j := &st.Jobs[i]
		w.string(j.ID)
		w.string(j.User)
		w.string(j.State)
		w.string(j.Error)
		if j.Result == nil {
			w.uvarint(0)
		} else {
			w.uvarint(1)
			w.resp(j.Result)
		}
	}
}

// encodeSnapshot serialises a state as one snapshot.
func encodeSnapshot(st *persistedState) []byte {
	users, history := sortedKeys(st.Users), sortedKeys(st.History)
	w := layoutWriter{sizing: true}
	w.writeBody(st, users, history)
	w.b = make([]byte, snapshotHeader, snapshotHeader+w.size)
	w.sizing = false
	w.writeBody(st, users, history)

	b := w.b
	copy(b, snapshotMagic[:])
	b[4] = snapshotVersion
	binary.LittleEndian.PutUint64(b[5:], uint64(len(b)-snapshotHeader))
	binary.LittleEndian.PutUint32(b[13:], crc32.Checksum(b[snapshotHeader:], castagnoli))
	return b
}

func (r *walReader) resp() (resp UploadResponse) {
	resp.Accepted = int(r.uvarint())
	resp.Rejected = int(r.uvarint())
	resp.Pieces = int(r.uvarint())
	if n := r.count(1); n > 0 {
		resp.Mechanisms = make([]string, n)
		for i := range resp.Mechanisms {
			resp.Mechanisms[i] = r.string()
		}
	}
	return resp
}

// decodeSnapshot parses a binary snapshot. It fails — and the boot with
// it — on a version it does not know, a length or checksum that does not
// match, or a body that does not parse to its last byte.
func decodeSnapshot(data []byte) (persistedState, error) {
	var st persistedState
	if len(data) < snapshotHeader || [4]byte(data[:4]) != snapshotMagic {
		return st, errSnapshotCorrupt
	}
	if data[4] != snapshotVersion {
		return st, fmt.Errorf("service: decoding state: snapshot version %d unsupported (written by a newer release?)", data[4])
	}
	body := data[snapshotHeader:]
	if want := binary.LittleEndian.Uint64(data[5:]); want != uint64(len(body)) {
		return st, fmt.Errorf("%w: body of %d bytes, header says %d", errSnapshotCorrupt, len(body), want)
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[13:]) {
		return st, fmt.Errorf("%w: checksum mismatch", errSnapshotCorrupt)
	}

	r := &walReader{b: body}
	st.Pseudo = int(r.uvarint())
	st.Retrains = int64(r.uvarint())
	st.FragSeq = int64(r.uvarint())
	// Non-nil even when empty: from here on records() carves, and a list
	// the declared total does not cover is corrupt.
	r.arena = make([]trace.Record, r.count(minRecordSize))
	st.Fragments = r.frags()
	// The counts below are bounded by the least an element can take: a
	// user 8 bytes, a history 2, an idempotency entry 14, a job 5.
	n := r.count(8)
	st.Users = make(map[string]*UserStats, n)
	for ; n > 0 && r.err == nil; n-- {
		id, us := r.string(), new(UserStats)
		for _, c := range userCounters(us) {
			*c = int(r.uvarint())
		}
		st.Users[id] = us
	}
	if n = r.count(2); n > 0 {
		st.History = make(map[string]segments, n)
	}
	for ; n > 0 && r.err == nil; n-- {
		u := r.string()
		st.History[u] = segments{r.records()}
	}
	if n = r.count(14); n > 0 {
		st.Idempotency = make([]persistedIdem, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		pe := &st.Idempotency[i]
		pe.Key = r.string()
		pe.FP = r.uint64()
		pe.JobID = r.string()
		pe.Resp = r.resp()
	}
	if n = r.count(5); n > 0 {
		st.Jobs = make([]JobStatus, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		j := &st.Jobs[i]
		j.ID, j.User, j.State, j.Error = r.string(), r.string(), r.string(), r.string()
		if hasResult := r.uvarint(); hasResult == 1 {
			resp := r.resp()
			j.Result = &resp
		} else if hasResult != 0 {
			r.fail()
		}
	}
	if r.err != nil || len(r.b) != 0 || len(r.arena) != 0 {
		return persistedState{}, errSnapshotCorrupt
	}
	return st, nil
}
