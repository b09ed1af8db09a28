package trace

import (
	"testing"
	"time"
)

// splitInvariants checks the contract of the fine-grained stage's cuts
// (SplitHalf and Chunks): no record lost, no record duplicated, order
// preserved within sub-traces.
func splitInvariants(t *testing.T, name string, tr Trace, parts []Trace) {
	t.Helper()
	var total int
	for i, p := range parts {
		if p.Empty() {
			t.Fatalf("%s: part %d empty", name, i)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: part %d: %v", name, i, err)
		}
		total += p.Len()
	}
	if total != tr.Len() {
		t.Fatalf("%s: %d records in, %d out", name, tr.Len(), total)
	}
}

func TestHalfSplitter(t *testing.T) {
	tr := lineTrace("u", 50, 0, 120)
	a, b := tr.SplitHalf()
	splitInvariants(t, "half", tr, []Trace{a, b})
}

func TestFixedDurationSplitter(t *testing.T) {
	tr := lineTrace("u", 120, 0, 120) // 4 hours, 1 record / 2 min
	parts := tr.Chunks(time.Hour)
	splitInvariants(t, "chunks", tr, parts)
	if len(parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(parts))
	}
	for _, p := range parts {
		if p.Duration() > time.Hour {
			t.Fatalf("part exceeds an hour: %v", p.Duration())
		}
	}
}

func TestSplittersOnEmptyAndSingle(t *testing.T) {
	empty, single := Trace{User: "u"}, lineTrace("u", 1, 42, 1)
	if parts := empty.Chunks(time.Hour); len(parts) != 0 {
		t.Errorf("chunks: empty trace produced %d parts", len(parts))
	}
	if a, b := empty.SplitHalf(); !a.Empty() || !b.Empty() {
		t.Errorf("half: empty trace produced %d+%d records", a.Len(), b.Len())
	}
	if parts := single.Chunks(time.Hour); len(parts) != 1 || parts[0].Len() != 1 {
		t.Errorf("chunks: single-record trace mishandled: %v", parts)
	}
}

func TestSubTraceIsCopy(t *testing.T) {
	tr := lineTrace("u", 10, 0, 60)
	a, _ := tr.SplitHalf()
	a.Records[0].Lat = -1
	if tr.Records[0].Lat == -1 {
		t.Fatal("split parts share storage with the source")
	}
}
