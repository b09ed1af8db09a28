package mood_test

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"mood"
	"mood/internal/mathx"
)

// env builds a pipeline over a small synthetic background.
func env(t *testing.T, seed uint64, opts ...mood.Option) (*mood.Pipeline, mood.Dataset) {
	t.Helper()
	d, err := mood.GenerateDataset("mdc", "tiny", seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test := mood.SplitTrainTest(d, 0.5, 20)
	opts = append([]mood.Option{mood.WithSeed(seed)}, opts...)
	p, err := mood.NewPipeline(train.Traces, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p, test
}

func TestPipelineProtectEndToEnd(t *testing.T) {
	p, test := env(t, 101)
	for _, tr := range test.Traces {
		res, err := p.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.User != tr.User {
			t.Fatalf("result user %q", res.User)
		}
		for _, piece := range res.Pieces {
			if hit, name := p.ReIdentifies(piece.Trace.WithUser(""), tr.User); hit {
				t.Fatalf("piece of %s re-identified by %s", tr.User, name)
			}
		}
	}
}

func TestPipelineProtectDatasetAndPublish(t *testing.T) {
	p, test := env(t, 102)
	results, err := p.ProtectDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	pub := p.Publish("protected", results)
	if err := pub.Validate(); err != nil {
		t.Fatal(err)
	}
	loss := p.DataLoss(results)
	if loss < 0 || loss > 0.2 {
		t.Fatalf("MooD data loss = %v, want near zero", loss)
	}
}

func TestPipelineHybridBaseline(t *testing.T) {
	p, test := env(t, 103)
	moodLoss, hybridLoss := 0, 0
	for _, tr := range test.Traces {
		mr, err := p.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := p.ProtectHybrid(tr)
		if err != nil {
			t.Fatal(err)
		}
		moodLoss += mr.LostRecords
		hybridLoss += hr.LostRecords
	}
	if moodLoss > hybridLoss {
		t.Fatalf("MooD lost more than Hybrid: %d vs %d", moodLoss, hybridLoss)
	}
}

func TestPipelineOptions(t *testing.T) {
	p, _ := env(t, 104,
		mood.WithDelta(2*time.Hour),
		mood.WithChunk(12*time.Hour),
		mood.WithEpsilon(0.02),
		mood.WithTRLRadius(500),
		mood.WithGreedySearch(),
	)
	if got := len(p.Mechanisms()); got != 3 {
		t.Fatalf("mechanisms = %d", got)
	}
	names := p.Attacks()
	if len(names) != 3 || names[0] != "AP" {
		t.Fatalf("attacks = %v", names)
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := mood.NewPipeline(nil); err == nil {
		t.Fatal("empty background must error")
	}
}

// TestPipelineRefusesNonFiniteParameters: NewPipeline refuses every
// Geo-I ε and TRL radius the mechanisms would refuse at each call.
func TestPipelineRefusesNonFiniteParameters(t *testing.T) {
	d, err := mood.GenerateDataset("mdc", "tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		for _, o := range []struct {
			name string
			opt  mood.Option
		}{{"WithEpsilon", mood.WithEpsilon(x)}, {"WithTRLRadius", mood.WithTRLRadius(x)}} {
			if _, err := mood.NewPipeline(d.Traces, o.opt); err == nil {
				t.Errorf("NewPipeline(%s(%v)) built a pipeline, want an error", o.name, x)
			}
		}
	}
}

func TestGenerateDataset(t *testing.T) {
	d, err := mood.GenerateDataset("privamov", "tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() == 0 || d.NumRecords() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := mood.GenerateDataset("nope", "tiny", 7); err == nil {
		t.Fatal("unknown preset must error")
	}
	if _, err := mood.GenerateDataset("mdc", "huge", 7); err == nil {
		t.Fatal("unknown scale must error")
	}
}

func TestDatasetPresets(t *testing.T) {
	ps := mood.DatasetPresets()
	if len(ps) != 4 {
		t.Fatalf("presets = %v", ps)
	}
	joined := strings.Join(ps, ",")
	for _, want := range []string{"mdc", "privamov", "geolife", "cabspotting"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing preset %q in %v", want, ps)
		}
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	d, err := mood.GenerateDataset("mdc", "tiny", 9)
	if err != nil {
		t.Fatal(err)
	}
	small := mood.NewDataset("small", d.Traces[:2])
	var buf bytes.Buffer
	if err := mood.WriteCSV(&buf, small); err != nil {
		t.Fatal(err)
	}
	back, err := mood.ReadCSV(&buf, "small")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRecords() != small.NumRecords() {
		t.Fatalf("round trip lost records: %d != %d", back.NumRecords(), small.NumRecords())
	}
}

func TestSTDExported(t *testing.T) {
	d, err := mood.GenerateDataset("mdc", "tiny", 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Traces[0]
	if got := mood.STD(tr, tr); got > 0.001 {
		t.Fatalf("STD(T,T) = %v", got)
	}
}

func TestWithExtraMechanisms(t *testing.T) {
	d, err := mood.GenerateDataset("mdc", "tiny", 11)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := mood.SplitTrainTest(d, 0.5, 20)
	p, err := mood.NewPipeline(train.Traces, mood.WithExtraMechanisms(noopMech{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Mechanisms()); got != 4 {
		t.Fatalf("mechanisms = %d, want 4", got)
	}
}

// noopMech is a trivial custom mechanism exercising WithExtraMechanisms.
type noopMech struct{}

func (noopMech) Name() string { return "noop" }
func (noopMech) Obfuscate(_ *mathx.Rand, t mood.Trace) (mood.Trace, error) {
	return t.Clone(), nil
}
