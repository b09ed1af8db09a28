package metrics

import (
	"testing"

	"mood/internal/geo"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/trace"
)

func TestCoverageIdenticalTraceIsOne(t *testing.T) {
	tr := line(200)
	c := CoverageUtility{}
	if got := c.Measure(tr, tr); got != 1 {
		t.Fatalf("coverage(T,T) = %v", got)
	}
}

func TestCoverageTotalDisplacementIsZero(t *testing.T) {
	tr := line(50)
	moved := tr.Clone()
	for i := range moved.Records {
		p := geo.Offset(moved.Records[i].Point(), 50000, 50000)
		moved.Records[i] = trace.At(p, moved.Records[i].TS)
	}
	c := CoverageUtility{}
	if got := c.Measure(tr, moved); got != 0 {
		t.Fatalf("coverage after 50km shift = %v", got)
	}
}

func TestCoverageDegradesWithNoise(t *testing.T) {
	tr := line(2000)
	c := CoverageUtility{CellSize: 200}
	weak, err := lppm.GeoI{Epsilon: 0.1}.Obfuscate(mathx.NewRand(3), tr)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := lppm.GeoI{Epsilon: 0.002}.Obfuscate(mathx.NewRand(3), tr)
	if err != nil {
		t.Fatal(err)
	}
	cw := c.Measure(tr, weak)
	cs := c.Measure(tr, strong)
	if cw <= cs {
		t.Fatalf("weak noise coverage %v should beat strong noise %v", cw, cs)
	}
}

func TestCoverageEmpty(t *testing.T) {
	c := CoverageUtility{}
	if got := c.Measure(trace.Trace{}, line(5)); got != 0 {
		t.Fatalf("coverage(empty, x) = %v", got)
	}
	if got := c.Measure(line(5), trace.Trace{}); got != 0 {
		t.Fatalf("coverage(x, empty) = %v", got)
	}
}

func TestCoverageBetterPrefersHigher(t *testing.T) {
	c := CoverageUtility{}
	if !c.Better(0.9, 0.5) || c.Better(0.5, 0.9) {
		t.Fatal("Better must prefer higher coverage")
	}
	if c.Name() != "coverage" {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestCoverageWorksAsEngineUtility(t *testing.T) {
	// The Utility interface contract: metrics with opposite polarity
	// must still drive selection correctly through Better.
	var u Utility = CoverageUtility{}
	// Coverage uses its own scale; verify selection logic directly.
	scores := []float64{0.2, 0.9, 0.5}
	bestIdx := 0
	for i, s := range scores {
		if u.Better(s, scores[bestIdx]) {
			bestIdx = i
		}
	}
	if bestIdx != 1 {
		t.Fatalf("selection picked %d, want 1", bestIdx)
	}
}
