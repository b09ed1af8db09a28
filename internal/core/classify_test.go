package core

import (
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	results := []Result{
		// Single-LPPM protection.
		{Pieces: []Piece{{Mechanism: "HMC"}}, TotalRecords: 10},
		// Composition protection.
		{Pieces: []Piece{{Mechanism: "HMC→GeoI"}}, TotalRecords: 10, UsedComposition: true},
		// Fully protected via fine-grained splitting.
		{Pieces: []Piece{{}, {}}, TotalRecords: 10, UsedComposition: true, UsedFineGrained: true},
		// Partial: some records lost.
		{Pieces: []Piece{{}}, TotalRecords: 10, LostRecords: 4, UsedFineGrained: true, UsedComposition: true},
		// Nothing protected.
		{TotalRecords: 10, LostRecords: 10},
	}
	c := Classify(results)
	if c.Single != 1 || c.Multi != 1 || c.FineGrained != 1 || c.Partial != 1 || c.Unprotected != 1 {
		t.Fatalf("classification = %+v", c)
	}
	s := c.String()
	for _, want := range []string{"single=1", "multi=1", "fine-grained=1", "partial=1", "unprotected=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestClassifyEmpty(t *testing.T) {
	c := Classify(nil)
	if c != (Classification{}) {
		t.Fatalf("empty classification = %+v", c)
	}
}

func TestClassifyMatchesEngineOutput(t *testing.T) {
	s := newScenario(t, 41)
	results, err := s.engine.ProtectDataset(s.test)
	if err != nil {
		t.Fatal(err)
	}
	c := Classify(results)
	if total := c.Single + c.Multi + c.FineGrained + c.Partial + c.Unprotected; total != s.test.NumUsers() {
		t.Fatalf("classified %d of %d users", total, s.test.NumUsers())
	}
}
