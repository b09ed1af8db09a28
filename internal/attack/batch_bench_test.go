package attack

import (
	"testing"

	"mood/internal/lppm"
	"mood/internal/profile"
	"mood/internal/synth"
	"mood/internal/trace"
)

// benchBatchEnv builds a many-profile workload: with only a handful of
// users the per-trace freeze dominates Identify and batching has little
// to bite on, so the batch benchmarks train against a large population
// where the O(profiles) scan is the cost that matters — the regime the
// audit pass and the dynamic-protection oracle actually run in.
func benchBatchEnv(b *testing.B, users, traces int) (Set, []trace.Trace, []string) {
	b.Helper()
	cfg := synth.PrivamovLike(synth.ScaleTiny, 11)
	cfg.NumUsers = users
	cfg.Days = 8
	cfg.DriftFraction = 0
	d, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	train, test := d.SplitTrainTest(0.5, 20)
	atks := Set{NewAP(), NewPOIAttack(), NewPIT()}
	if err := TrainAll(atks, train.Traces); err != nil {
		b.Fatal(err)
	}
	if test.NumUsers() == 0 {
		b.Fatal("no test users")
	}
	ts := make([]trace.Trace, 0, traces)
	owners := make([]string, 0, traces)
	for len(ts) < traces {
		tr := test.Traces[len(ts)%len(test.Traces)]
		ts = append(ts, tr.WithUser(""))
		owners = append(owners, tr.User)
	}
	return atks, ts, owners
}

// benchTrainBackground is a retrain pass's input at the benchmark's
// shape (retrain-audit-node): a 141-user MDC-like city over six days,
// ≈ 100 k records — the initial background merged with three rounds of
// uploaded history.
func benchTrainBackground(b *testing.B) []trace.Trace {
	b.Helper()
	cfg := synth.MDCLike(synth.ScalePaper, 1)
	cfg.NumUsers = 141
	cfg.Days = 6
	d, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d.Traces
}

// BenchmarkTrainAll times a retrain pass's attack training: each attack
// alone, the default set through TrainAll (one profile set: one POI
// extraction shared by POI and PIT), the same set through the
// sequential oracle the parallel trainers replaced, and a pipeline's
// whole profile build — the set and HMC as views over one profile set,
// so HMC reuses the AP-attack's heatmaps.
func BenchmarkTrainAll(b *testing.B) {
	bg := benchTrainBackground(b)
	for _, bc := range []struct {
		name  string
		set   func() Set
		train func(Set, []trace.Trace) error
	}{
		{"AP", func() Set { return Set{NewAP()} }, TrainAll},
		{"POI", func() Set { return Set{NewPOIAttack()} }, TrainAll},
		{"PIT", func() Set { return Set{NewPIT()} }, TrainAll},
		{"set", allAttacks, TrainAll},
		{"set/sequential", allAttacks, oracleTrainAll},
		{"set+HMC", allAttacks, func(s Set, bg []trace.Trace) error {
			ps := profile.New(bg, 0)
			if _, err := lppm.NewHMCOn(ps); err != nil {
				return err
			}
			return s.TrainOn(ps)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.train(bc.set(), bg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewHMC times the other half of a retrain pass's profile
// building: HMC's imitation pool over the same background.
func BenchmarkNewHMC(b *testing.B) {
	bg := benchTrainBackground(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lppm.NewHMC(0, bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchIdentify compares one-trace batches with one whole
// batch through the same kernels on two workloads: "AP" is raw
// identification throughput (one verdict per trace), "audit" is the
// protection predicate (first-hit-wins across the full attack set,
// owner-seeded). The "one" variants loop the public one-trace APIs, as
// the engine calls them per candidate; "batch" is the re-audit's shape.
func BenchmarkBatchIdentify(b *testing.B) {
	atks, ts, owners := benchBatchEnv(b, 192, 64)
	ap := atks[0].(*AP)

	b.Run("AP/one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tr := range ts {
				ap.Identify(tr)
			}
		}
	})
	b.Run("AP/batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if vs := ap.IdentifyBatch(ts); len(vs) != len(ts) {
				b.Fatal("short batch")
			}
		}
	})
	b.Run("audit/one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, tr := range ts {
				atks.ReIdentifies(tr, owners[j])
			}
		}
	})
	b.Run("audit/batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rs := atks.ReIdentifiesBatch(ts, owners); len(rs) != len(ts) {
				b.Fatal("short batch")
			}
		}
	})
}
