package mood_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"mood"
	"mood/internal/attack"
)

// TestPipelineRetrain covers the §6 rebuild API: a retrained pipeline is
// a fresh engine over new background knowledge with the original
// configuration, and the original pipeline keeps working untouched.
func TestPipelineRetrain(t *testing.T) {
	p1, test := env(t, 105)
	victim := test.Traces[0]

	before, err := p1.Protect(victim)
	if err != nil {
		t.Fatal(err)
	}

	// Retrain on the (drifted) test period itself.
	p2, err := p1.Retrain(test.Traces)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("Retrain returned the same pipeline")
	}
	if got := p2.Attacks(); len(got) != 3 {
		t.Fatalf("retrained attacks = %v", got)
	}

	// The retrained pipeline protects against its own attacks.
	res, err := p2.Protect(victim)
	if err != nil {
		t.Fatal(err)
	}
	for _, piece := range res.Pieces {
		if hit, name := p2.ReIdentifies(piece.Trace.WithUser(""), victim.User); hit {
			t.Fatalf("retrained pipeline published a piece %s re-identifies", name)
		}
	}

	// The original pipeline is unaffected: same config, same background,
	// bit-identical output.
	after, err := p1.Protect(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("original pipeline changed after Retrain")
	}

	// Retrain is equivalent to building a fresh pipeline on the new
	// background with the same options.
	fresh, err := mood.NewPipeline(test.Traces, mood.WithSeed(105))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p2.Protect(victim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Protect(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Retrain diverged from an equivalent fresh pipeline")
	}
}

func TestPipelineRetrainErrors(t *testing.T) {
	p, test := env(t, 106)
	if _, err := p.Retrain(nil); err == nil {
		t.Fatal("empty background must error")
	}

	custom, err := mood.NewPipeline(test.Traces, mood.WithAttacks(attack.NewAP()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := custom.Retrain(test.Traces); err == nil {
		t.Fatal("Retrain with WithAttacks must refuse (it would mutate the serving attack set)")
	}
}

// resultBits lists the bits of every float a batch of results
// publishes, so two batches compare bit for bit, not within ==.
func resultBits(rs []mood.Result) []uint64 {
	var out []uint64
	for _, r := range rs {
		for _, p := range r.Pieces {
			out = append(out, math.Float64bits(p.Distortion))
			for _, rec := range p.Trace.Records {
				out = append(out, math.Float64bits(rec.Lat), math.Float64bits(rec.Lon))
			}
		}
	}
	return out
}

// TestPipelineRetrainWith: RetrainWith(h) is Retrain on the initial
// background followed by h, merged per user — the path the benchmark
// harness writes out by hand — bit for bit; and a chain of calls, each
// passing the history so far, counts no upload twice.
func TestPipelineRetrainWith(t *testing.T) {
	d, err := mood.GenerateDataset("mdc", "tiny", 107)
	if err != nil {
		t.Fatal(err)
	}
	initial, test := mood.SplitTrainTest(d, 0.5, 20)
	p, err := mood.NewPipeline(initial.Traces, mood.WithSeed(107))
	if err != nil {
		t.Fatal(err)
	}
	half := len(test.Traces) / 2
	h1, all := test.Traces[:half], test.Traces
	protect := func(p *mood.Pipeline) []mood.Result {
		t.Helper()
		rs, err := p.ProtectDataset(test)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	same := func(what string, got, want []mood.Result) {
		t.Helper()
		if !reflect.DeepEqual(got, want) || !slices.Equal(resultBits(got), resultBits(want)) {
			t.Fatalf("%s: results differ", what)
		}
	}

	viaWith, err := p.RetrainWith(all)
	if err != nil {
		t.Fatal(err)
	}
	viaRetrain, err := p.Retrain(mood.NewDataset("background", slices.Concat(initial.Traces, all)).Traces)
	if err != nil {
		t.Fatal(err)
	}
	want := protect(viaRetrain)
	same("RetrainWith(h) vs Retrain(H₀ ∪ h)", protect(viaWith), want)

	step, err := p.RetrainWith(h1)
	if err != nil {
		t.Fatal(err)
	}
	chained, err := step.RetrainWith(all)
	if err != nil {
		t.Fatal(err)
	}
	same("RetrainWith(h1).RetrainWith(h1 ∪ h2) vs RetrainWith(h1 ∪ h2)", protect(chained), want)

	custom, err := mood.NewPipeline(initial.Traces, mood.WithAttacks(attack.NewAP()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := custom.RetrainWith(all); err == nil {
		t.Fatal("RetrainWith with WithAttacks must refuse, as Retrain does")
	}
}
