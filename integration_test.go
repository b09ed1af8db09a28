package mood_test

import (
	"strings"
	"testing"
	"time"

	"mood"
)

// TestIntegrationFullReleaseWorkflow drives the complete data-release
// path on two different synthetic cities: generate, split, protect with
// MooD, publish, and audit with ground truth.
func TestIntegrationFullReleaseWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, preset := range []string{"mdc", "cabspotting"} {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			d, err := mood.GenerateDataset(preset, "tiny", 500)
			if err != nil {
				t.Fatal(err)
			}
			train, test := mood.SplitTrainTest(d, 0.5, 20)
			p, err := mood.NewPipeline(train.Traces, mood.WithSeed(500))
			if err != nil {
				t.Fatal(err)
			}
			results, err := p.ProtectDataset(test)
			if err != nil {
				t.Fatal(err)
			}

			// Audit: no piece may be linked back to its true owner.
			for _, r := range results {
				for _, piece := range r.Pieces {
					if hit, name := p.ReIdentifies(piece.Trace.WithUser(""), r.User); hit {
						t.Errorf("%s: piece of %s re-identified by %s", preset, r.User, name)
					}
				}
			}

			// Accounting must balance.
			var covered, lost, total int
			for _, r := range results {
				for _, piece := range r.Pieces {
					covered += piece.SourceRecords
				}
				lost += r.LostRecords
				total += r.TotalRecords
			}
			if covered+lost != total {
				t.Errorf("%s: covered %d + lost %d != total %d", preset, covered, lost, total)
			}
			if total != test.NumRecords() {
				t.Errorf("%s: total %d != dataset %d", preset, total, test.NumRecords())
			}

			// The headline guarantee: near-zero loss.
			if loss := p.DataLoss(results); loss > 0.05 {
				t.Errorf("%s: MooD loss %.2f%%", preset, 100*loss)
			}

			// Classification covers everyone.
			c := mood.Classify(results)
			if total := c.Single + c.Multi + c.FineGrained + c.Partial + c.Unprotected; total != test.NumUsers() {
				t.Errorf("%s: classified %d of %d", preset, total, test.NumUsers())
			}
		})
	}
}

// TestIntegrationDeterministicAcrossRuns rebuilds the whole pipeline
// twice and requires byte-identical published output.
func TestIntegrationDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	build := func() mood.Dataset {
		d, err := mood.GenerateDataset("privamov", "tiny", 7)
		if err != nil {
			t.Fatal(err)
		}
		train, test := mood.SplitTrainTest(d, 0.5, 20)
		p, err := mood.NewPipeline(train.Traces, mood.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		results, err := p.ProtectDataset(test)
		if err != nil {
			t.Fatal(err)
		}
		return p.Publish("out", results)
	}
	a := build()
	b := build()
	if a.NumRecords() != b.NumRecords() || a.NumUsers() != b.NumUsers() {
		t.Fatalf("runs differ structurally: %v vs %v", a, b)
	}
	for i := range a.Traces {
		if a.Traces[i].User != b.Traces[i].User {
			t.Fatalf("trace %d user differs", i)
		}
		for j := range a.Traces[i].Records {
			if a.Traces[i].Records[j] != b.Traces[i].Records[j] {
				t.Fatalf("trace %d record %d differs", i, j)
			}
		}
	}
}

// TestIntegrationKAnonPortfolio runs the pipeline with the k-anonymity
// extension in the portfolio.
func TestIntegrationKAnonPortfolio(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	d, err := mood.GenerateDataset("mdc", "tiny", 9)
	if err != nil {
		t.Fatal(err)
	}
	train, test := mood.SplitTrainTest(d, 0.5, 20)
	p, err := mood.NewPipeline(train.Traces, mood.WithSeed(9), mood.WithKAnonymity(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Mechanisms()); got != 4 {
		t.Fatalf("portfolio = %d mechanisms, want 4", got)
	}
	// With 4 mechanisms the composition space grows to Σ 4!/(4-i)! = 64.
	results, err := p.ProtectDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for _, piece := range r.Pieces {
			if hit, name := p.ReIdentifies(piece.Trace.WithUser(""), r.User); hit {
				t.Errorf("piece of %s re-identified by %s (mech %s)", r.User, name, piece.Mechanism)
			}
		}
	}
}

// TestIntegrationGreedyMatchesBruteProtection verifies the §6 heuristic
// protects the same record volume end to end.
func TestIntegrationGreedyMatchesBruteProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	d, err := mood.GenerateDataset("geolife", "tiny", 13)
	if err != nil {
		t.Fatal(err)
	}
	train, test := mood.SplitTrainTest(d, 0.5, 20)

	brute, err := mood.NewPipeline(train.Traces, mood.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := mood.NewPipeline(train.Traces, mood.WithSeed(13), mood.WithGreedySearch())
	if err != nil {
		t.Fatal(err)
	}
	br, err := brute.ProtectDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := greedy.ProtectDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	if bl, gl := brute.DataLoss(br), greedy.DataLoss(gr); gl > bl+1e-9 {
		t.Fatalf("greedy loss %.3f > brute %.3f", gl, bl)
	}
}

// TestIntegrationChunkOption checks that a custom chunk duration
// propagates into the fine-grained stage.
func TestIntegrationChunkOption(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	d, err := mood.GenerateDataset("mdc", "tiny", 17)
	if err != nil {
		t.Fatal(err)
	}
	train, test := mood.SplitTrainTest(d, 0.5, 20)
	p, err := mood.NewPipeline(train.Traces,
		mood.WithSeed(17), mood.WithChunk(12*time.Hour), mood.WithDelta(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range test.Traces {
		res, err := p.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.UsedFineGrained {
			continue
		}
		for _, piece := range res.Pieces {
			if piece.Trace.Duration() > 12*time.Hour {
				t.Fatalf("piece longer than the 12h chunk: %v", piece.Trace.Duration())
			}
			if !strings.HasPrefix(piece.Trace.User, "anon-") {
				t.Fatalf("fine-grained piece not pseudonymised: %q", piece.Trace.User)
			}
		}
	}
}
