package trace

import (
	"strings"
	"testing"
)

func sampleDataset() Dataset {
	return NewDataset("d", []Trace{
		lineTrace("u3", 10, 0, 60),
		lineTrace("u1", 20, 0, 60),
		lineTrace("u2", 5, 600, 60),
	})
}

func TestNewDatasetSortsAndMerges(t *testing.T) {
	d := sampleDataset()
	users := d.Users()
	if len(users) != 3 || users[0] != "u1" || users[2] != "u3" {
		t.Fatalf("users = %v", users)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	// Duplicate user IDs must merge.
	dup := NewDataset("d", []Trace{
		lineTrace("u", 3, 0, 10),
		lineTrace("u", 3, 100, 10),
	})
	if dup.NumUsers() != 1 {
		t.Fatalf("NumUsers = %d, want 1", dup.NumUsers())
	}
	tr, ok := dup.Trace("u")
	if !ok || tr.Len() != 6 {
		t.Fatalf("merged trace len = %d, want 6", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("merged trace must be sorted: %v", err)
	}
}

func TestDatasetCounts(t *testing.T) {
	d := sampleDataset()
	if d.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d", d.NumUsers())
	}
	if d.NumRecords() != 35 {
		t.Fatalf("NumRecords = %d, want 35", d.NumRecords())
	}
}

func TestDatasetTraceLookup(t *testing.T) {
	d := sampleDataset()
	if _, ok := d.Trace("u2"); !ok {
		t.Fatal("u2 should exist")
	}
	if _, ok := d.Trace("nobody"); ok {
		t.Fatal("nobody should not exist")
	}
}

func TestDatasetWindowDropsEmptied(t *testing.T) {
	d := sampleDataset()
	// u2 starts at 600: a window that ends before it drops the user.
	w := d.Window(0, 300)
	if w.NumUsers() != 2 || w.Users()[0] != "u1" || w.Users()[1] != "u3" {
		t.Fatalf("window kept users %v, want [u1 u3]", w.Users())
	}
}

func TestDatasetTimeSpanAndWindow(t *testing.T) {
	d := sampleDataset()
	start, end := d.TimeSpan()
	if start != 0 {
		t.Fatalf("start = %d", start)
	}
	if end != 0+19*60 {
		t.Fatalf("end = %d, want 1140", end)
	}
	w := d.Window(0, 300)
	for _, tr := range w.Traces {
		if tr.End() >= 300 {
			t.Fatal("window leaked records")
		}
	}
}

func TestSplitTrainTest(t *testing.T) {
	d := sampleDataset()
	train, test := d.SplitTrainTest(0.5, 1)
	if train.NumUsers() == 0 || test.NumUsers() == 0 {
		t.Fatal("both splits should have users")
	}
	// No record may appear on the wrong side of the cut.
	_, end := d.TimeSpan()
	start, _ := d.TimeSpan()
	cut := start + (end-start)/2
	for _, tr := range train.Traces {
		if tr.End() >= cut {
			t.Fatal("train contains post-cut records")
		}
	}
	for _, tr := range test.Traces {
		if tr.Start() < cut {
			t.Fatal("test contains pre-cut records")
		}
	}
	// Users present in both splits must be identical sets.
	tu := strings.Join(train.Users(), ",")
	su := strings.Join(test.Users(), ",")
	if tu != su {
		t.Fatalf("train users %v != test users %v", tu, su)
	}
}

func TestSplitTrainTestActivityThreshold(t *testing.T) {
	// u2 has records only in the second half, so a threshold of 1 must
	// drop it from both splits.
	d := NewDataset("d", []Trace{
		lineTrace("u1", 20, 0, 60),   // spans 0..1140
		lineTrace("u2", 5, 1000, 10), // only late records
	})
	train, test := d.SplitTrainTest(0.5, 1)
	if train.NumUsers() != 1 || test.NumUsers() != 1 {
		t.Fatalf("expected only u1 to survive, got %v / %v", train.Users(), test.Users())
	}
}

func TestDatasetValidateCatchesDisorder(t *testing.T) {
	d := Dataset{Name: "broken", Traces: []Trace{
		lineTrace("b", 2, 0, 1),
		lineTrace("a", 2, 0, 1),
	}}
	if err := d.Validate(); err == nil {
		t.Fatal("unsorted dataset must fail validation")
	}
}
