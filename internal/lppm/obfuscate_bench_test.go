package lppm

import (
	"testing"

	"mood/internal/mathx"
	"mood/internal/synth"
	"mood/internal/trace"
)

// benchWalk is one synthetic user's trace, cut to n records.
func benchWalk(n int) trace.Trace {
	cfg := synth.PrivamovLike(synth.ScaleTiny, 5)
	cfg.NumUsers = 1
	cfg.Days = 4
	d := synth.MustGenerate(cfg)
	t := d.Traces[0]
	if t.Len() > n {
		t.Records = t.Records[:n]
	}
	return t
}

func BenchmarkGeoIObfuscate(b *testing.B) {
	t := benchWalk(2000)
	g := NewGeoI()
	rng := mathx.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Obfuscate(rng, t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Len()), "records")
}

func BenchmarkTRLObfuscate(b *testing.B) {
	t := benchWalk(2000)
	mech := NewTRL()
	rng := mathx.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.Obfuscate(rng, t); err != nil {
			b.Fatal(err)
		}
	}
}
