package trace

import (
	"sort"
	"testing"
	"time"

	"mood/internal/geo"
	"mood/internal/mathx"
)

var lyon = geo.Point{Lat: 45.7640, Lon: 4.8357}

// lineTrace builds a trace of n records, one per stepSec seconds,
// moving east 10 m per step.
func lineTrace(user string, n int, start int64, stepSec int64) Trace {
	rs := make([]Record, n)
	for i := 0; i < n; i++ {
		p := geo.Offset(lyon, float64(i)*10, 0)
		rs[i] = At(p, start+int64(i)*stepSec)
	}
	return Trace{User: user, Records: rs}
}

func TestNewSortsRecords(t *testing.T) {
	rs := []Record{
		At(lyon, 300),
		At(lyon, 100),
		At(lyon, 200),
	}
	tr := New("u", rs)
	if err := tr.Validate(); err != nil {
		t.Fatalf("New must sort records: %v", err)
	}
	if tr.Start() != 100 || tr.End() != 300 {
		t.Fatalf("start/end = %v/%v", tr.Start(), tr.End())
	}
	// Caller's slice must be untouched.
	if rs[0].TS != 300 {
		t.Fatal("New mutated the caller's slice")
	}
}

func TestEmptyTraceAccessors(t *testing.T) {
	var tr Trace
	if !tr.Empty() || tr.Len() != 0 {
		t.Fatal("zero trace should be empty")
	}
	if tr.Start() != 0 || tr.End() != 0 || tr.Duration() != 0 {
		t.Fatal("empty trace accessors should be zero")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("empty trace must validate: %v", err)
	}
}

func TestDuration(t *testing.T) {
	tr := lineTrace("u", 11, 1000, 60)
	if got := tr.Duration(); got != 10*time.Minute {
		t.Fatalf("Duration = %v, want 10m", got)
	}
}

func TestWindow(t *testing.T) {
	tr := lineTrace("u", 10, 0, 10) // ts 0..90
	w := tr.Window(20, 50)          // ts 20,30,40
	if w.Len() != 3 {
		t.Fatalf("window len = %d, want 3", w.Len())
	}
	if w.Start() != 20 || w.End() != 40 {
		t.Fatalf("window span = [%d,%d]", w.Start(), w.End())
	}
	// Window is a copy: mutating it must not touch the original.
	w.Records[0].TS = 999
	if tr.Records[2].TS != 20 {
		t.Fatal("Window shares storage with the source trace")
	}
}

func TestWindowEdges(t *testing.T) {
	tr := lineTrace("u", 5, 100, 10) // 100..140
	if w := tr.Window(0, 100); !w.Empty() {
		t.Fatal("window before trace should be empty")
	}
	if w := tr.Window(141, 1000); !w.Empty() {
		t.Fatal("window after trace should be empty")
	}
	if w := tr.Window(100, 141); w.Len() != 5 {
		t.Fatal("full window should contain all records")
	}
}

func TestSplitAtPreservesRecords(t *testing.T) {
	f := func(n uint8, cutFrac float64) bool {
		tr := lineTrace("u", int(n%50)+2, 0, 30)
		cut := int64(float64(tr.End()) * cutFrac)
		b, a := tr.SplitAt(cut)
		if b.Len()+a.Len() != tr.Len() {
			return false
		}
		for _, r := range b.Records {
			if r.TS >= cut {
				return false
			}
		}
		for _, r := range a.Records {
			if r.TS < cut {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200; i++ {
		if !f(uint8(i), float64(i%100)/100) {
			t.Fatalf("SplitAt invariant violated at i=%d", i)
		}
	}
}

func TestSplitHalfInvariants(t *testing.T) {
	tr := lineTrace("u", 101, 0, 60)
	a, b := tr.SplitHalf()
	if a.Len()+b.Len() != tr.Len() {
		t.Fatalf("record count changed: %d + %d != %d", a.Len(), b.Len(), tr.Len())
	}
	if a.Empty() || b.Empty() {
		t.Fatal("both halves should be non-empty for a long trace")
	}
	if a.End() >= b.Start() {
		t.Fatal("halves must not overlap in time")
	}
	// Time spans should be roughly balanced.
	if a.Duration() < tr.Duration()/4 || b.Duration() < tr.Duration()/4 {
		t.Fatalf("unbalanced halves: %v vs %v", a.Duration(), b.Duration())
	}
}

func TestSplitHalfDegenerateTimestamps(t *testing.T) {
	// All records share one timestamp: the fallback must still split by
	// count so recursion terminates.
	rs := make([]Record, 10)
	for i := range rs {
		rs[i] = At(geo.Offset(lyon, float64(i), 0), 500)
	}
	tr := Trace{User: "u", Records: rs}
	a, b := tr.SplitHalf()
	if a.Len() != 5 || b.Len() != 5 {
		t.Fatalf("degenerate split = %d/%d, want 5/5", a.Len(), b.Len())
	}
}

func TestSplitHalfTiny(t *testing.T) {
	one := lineTrace("u", 1, 0, 60)
	a, b := one.SplitHalf()
	if a.Len() != 1 || !b.Empty() {
		t.Fatalf("single-record split = %d/%d", a.Len(), b.Len())
	}
}

func TestChunks(t *testing.T) {
	// 48 hours of data at 1 sample/hour -> two 24h chunks + boundary.
	tr := lineTrace("u", 49, 0, 3600)
	chunks := tr.Chunks(24 * time.Hour)
	if len(chunks) != 3 { // [0,24h) [24h,48h) [48h,48h]
		t.Fatalf("len(chunks) = %d, want 3", len(chunks))
	}
	var total int
	for i, c := range chunks {
		if c.Empty() {
			t.Fatalf("chunk %d empty", i)
		}
		if c.Duration() > 24*time.Hour {
			t.Fatalf("chunk %d longer than 24h: %v", i, c.Duration())
		}
		total += c.Len()
	}
	if total != tr.Len() {
		t.Fatalf("chunking lost records: %d != %d", total, tr.Len())
	}
}

func TestChunksNonPositiveDuration(t *testing.T) {
	tr := lineTrace("u", 5, 0, 60)
	chunks := tr.Chunks(0)
	if len(chunks) != 1 || chunks[0].Len() != 5 {
		t.Fatal("non-positive duration must return the whole trace")
	}
}

func TestMerge(t *testing.T) {
	a := lineTrace("u", 3, 0, 10)
	b := lineTrace("u", 3, 5, 10)
	m := Merge(a, b)
	if m.Len() != 6 {
		t.Fatalf("merge len = %d", m.Len())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("merge must sort: %v", err)
	}
	if m.User != "u" {
		t.Fatalf("merge user = %q", m.User)
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	bad := Trace{User: "u", Records: []Record{
		{Lat: 95, Lon: 0, TS: 1},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid latitude must fail validation")
	}
	unsorted := Trace{User: "u", Records: []Record{
		At(lyon, 10), At(lyon, 5),
	}}
	if err := unsorted.Validate(); err == nil {
		t.Fatal("unsorted trace must fail validation")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := lineTrace("u", 3, 0, 10)
	c := tr.Clone()
	c.Records[0].Lat = 0
	if tr.Records[0].Lat == 0 {
		t.Fatal("Clone shares storage")
	}
}

// TestSortInPlaceIsStable: SortInPlace orders exactly as a stable sort
// by timestamp does — simultaneous records keep their input order — on
// shuffled, sorted and reversed traces with repeated timestamps.
func TestSortInPlaceIsStable(t *testing.T) {
	rng := mathx.NewRand(3)
	for i := 0; i < 500; i++ {
		rs := make([]Record, rng.Intn(60))
		for j := range rs {
			rs[j] = Record{Lat: float64(j), TS: int64(rng.Intn(1 + len(rs)/3))}
		}
		switch i % 3 {
		case 1:
			sort.SliceStable(rs, func(a, b int) bool { return rs[a].TS < rs[b].TS })
		case 2:
			sort.SliceStable(rs, func(a, b int) bool { return rs[a].TS > rs[b].TS })
		}
		want := append([]Record(nil), rs...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].TS < want[b].TS })
		got := Trace{Records: rs}
		got.SortInPlace()
		for j := range want {
			if got.Records[j] != want[j] {
				t.Fatalf("trace %d: record %d is %+v, want %+v", i, j, got.Records[j], want[j])
			}
		}
	}
}
