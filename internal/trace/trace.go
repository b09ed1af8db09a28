// Package trace defines the mobility-data model of MooD: spatio-temporal
// records, per-user traces and datasets, together with the slicing
// operations (time windows, fixed-duration chunks, recursive halving)
// that the fine-grained protection stage of the paper relies on.
//
// A mobility trace is a time-ordered sequence of records
// r = (lat, lon, t), i.e. an element of (R² × R⁺)* in the paper's
// notation (§2.1).
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"mood/internal/geo"
)

// Record is a single spatio-temporal sample of a user's position.
// Timestamps are Unix seconds: hot paths iterate millions of records and
// int64 comparisons keep them cheap.
type Record struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	TS  int64   `json:"ts"`
}

// Point returns the spatial component of the record.
func (r Record) Point() geo.Point { return geo.Point{Lat: r.Lat, Lon: r.Lon} }

// At builds a record from a point and a Unix timestamp.
func At(p geo.Point, ts int64) Record { return Record{Lat: p.Lat, Lon: p.Lon, TS: ts} }

// Trace is the mobility trace of one user: records sorted by ascending
// timestamp.
type Trace struct {
	User    string   `json:"user"`
	Records []Record `json:"records"`
}

// New returns a trace for user with its records sorted by time.
// The records slice is copied so the caller keeps ownership of its input.
func New(user string, records []Record) Trace {
	rs := make([]Record, len(records))
	copy(rs, records)
	t := Trace{User: user, Records: rs}
	t.SortInPlace()
	return t
}

// SortInPlace orders the records by ascending timestamp (stable, so
// simultaneous records such as TRL dummies keep their relative order).
// Records already in order, as an uploaded chunk's are, cost one scan.
func (t *Trace) SortInPlace() {
	if !slices.IsSortedFunc(t.Records, byTS) {
		slices.SortStableFunc(t.Records, byTS)
	}
}

func byTS(a, b Record) int { return cmp.Compare(a.TS, b.TS) }

// Len returns the number of records.
func (t Trace) Len() int { return len(t.Records) }

// Empty reports whether the trace has no records.
func (t Trace) Empty() bool { return len(t.Records) == 0 }

// Start returns the first timestamp, or 0 for an empty trace.
func (t Trace) Start() int64 {
	if t.Empty() {
		return 0
	}
	return t.Records[0].TS
}

// End returns the last timestamp, or 0 for an empty trace.
func (t Trace) End() int64 {
	if t.Empty() {
		return 0
	}
	return t.Records[len(t.Records)-1].TS
}

// Duration returns End-Start as a time.Duration; zero for traces with
// fewer than two records.
func (t Trace) Duration() time.Duration {
	if t.Len() < 2 {
		return 0
	}
	return time.Duration(t.End()-t.Start()) * time.Second
}

// Clone returns a deep copy of the trace.
func (t Trace) Clone() Trace {
	rs := make([]Record, len(t.Records))
	copy(rs, t.Records)
	return Trace{User: t.User, Records: rs}
}

// WithUser returns a shallow copy of the trace relabelled to user.
// The records slice is shared; callers that mutate records must Clone.
func (t Trace) WithUser(user string) Trace {
	return Trace{User: user, Records: t.Records}
}

// Window returns the sub-trace with timestamps in [from, to). The
// returned trace shares no storage with t.
func (t Trace) Window(from, to int64) Trace {
	lo := sort.Search(len(t.Records), func(i int) bool { return t.Records[i].TS >= from })
	hi := sort.Search(len(t.Records), func(i int) bool { return t.Records[i].TS >= to })
	rs := make([]Record, hi-lo)
	copy(rs, t.Records[lo:hi])
	return Trace{User: t.User, Records: rs}
}

// SplitAt splits the trace into the records strictly before ts and the
// records at or after ts.
func (t Trace) SplitAt(ts int64) (before, after Trace) {
	i := sort.Search(len(t.Records), func(i int) bool { return t.Records[i].TS >= ts })
	b := make([]Record, i)
	copy(b, t.Records[:i])
	a := make([]Record, len(t.Records)-i)
	copy(a, t.Records[i:])
	return Trace{User: t.User, Records: b}, Trace{User: t.User, Records: a}
}

// SplitHalf splits the trace at the midpoint of its time span, as the
// fine-grained stage of MooD's Algorithm 1 does. Traces with fewer than
// two records return themselves plus an empty half.
func (t Trace) SplitHalf() (first, second Trace) {
	if t.Len() < 2 {
		return t.Clone(), Trace{User: t.User}
	}
	mid := t.Start() + (t.End()-t.Start())/2
	first, second = t.SplitAt(mid)
	if first.Empty() || second.Empty() {
		// Degenerate time distribution (e.g. all records share one
		// timestamp): fall back to splitting by record count so the
		// recursion always makes progress.
		h := t.Len() / 2
		f := make([]Record, h)
		copy(f, t.Records[:h])
		s := make([]Record, t.Len()-h)
		copy(s, t.Records[h:])
		return Trace{User: t.User, Records: f}, Trace{User: t.User, Records: s}
	}
	return first, second
}

// Chunks cuts the trace into sub-traces of at most d duration, aligned
// to the trace start. Empty chunks are skipped. The paper uses d = 24 h
// to model daily crowd-sensing uploads (§4.2).
func (t Trace) Chunks(d time.Duration) []Trace {
	if t.Empty() {
		return nil
	}
	if d <= 0 {
		return []Trace{t.Clone()}
	}
	sec := int64(d / time.Second)
	if sec <= 0 {
		sec = 1
	}
	var out []Trace
	start := t.Start()
	end := t.End()
	for from := start; from <= end; from += sec {
		c := t.Window(from, from+sec)
		if !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// Merge combines several traces into one (records re-sorted). The user
// label of the first non-empty trace is kept.
func Merge(traces ...Trace) Trace {
	var user string
	var n int
	for _, t := range traces {
		if user == "" && !t.Empty() {
			user = t.User
		}
		n += t.Len()
	}
	rs := make([]Record, 0, n)
	for _, t := range traces {
		rs = append(rs, t.Records...)
	}
	out := Trace{User: user, Records: rs}
	out.SortInPlace()
	return out
}

// BBox returns the bounding box of the trace's records.
func (t Trace) BBox() geo.BBox {
	b := geo.EmptyBBox()
	for _, r := range t.Records {
		b = b.Extend(r.Point())
	}
	return b
}

// Validate checks structural invariants: sorted timestamps and valid
// coordinates. It returns a descriptive error for the first violation.
func (t Trace) Validate() error {
	for i, r := range t.Records {
		if !r.Point().Valid() {
			return fmt.Errorf("trace %q: record %d has invalid coordinates %v", t.User, i, r.Point())
		}
		if i > 0 && r.TS < t.Records[i-1].TS {
			return fmt.Errorf("trace %q: records out of order at index %d", t.User, i)
		}
	}
	return nil
}

// String summarises the trace.
func (t Trace) String() string {
	return fmt.Sprintf("trace(%s, %d records, %s)", t.User, t.Len(), t.Duration())
}
