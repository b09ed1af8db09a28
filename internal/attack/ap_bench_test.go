package attack

import (
	"testing"

	"mood/internal/heatmap"
	"mood/internal/synth"
	"mood/internal/trace"
)

// benchAPEnv builds a trained AP over a realistic background and returns
// the attack plus an anonymous test trace.
func benchAPEnv(b *testing.B, users int) (*AP, trace.Trace) {
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
	ap := NewAP()
	if err := ap.Train(train.Traces); err != nil {
		b.Fatal(err)
	}
	if test.NumUsers() == 0 {
		b.Fatal("no test users")
	}
	return ap, test.Traces[0]
}

// BenchmarkAPIdentify measures the AP-attack hot path over the frozen
// sorted-sparse profiles. "full" is the public Identify (one anonymous
// freeze and quantization plus the pruned scan); "scan" is the oracle's
// unpruned comparison loop alone, which must stay at 0 allocs/op — the
// acceptance bar of the Frozen refactor (the map-based baseline ran ~95
// allocs and ~700µs per Identify on this workload). The end-to-end cost
// of Identify is the attack.ap_identify_us layer of the bench/ harness.
func BenchmarkAPIdentify(b *testing.B) {
	ap, anon := benchAPEnv(b, 10)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v := ap.Identify(anon); !v.OK {
				b.Fatal("no verdict")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		frozen := heatmap.FrozenFromTrace(ap.grid, anon)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := oracleScanAP(ap, frozen); !v.OK {
				b.Fatal("no verdict")
			}
		}
	})
}
