package metrics_test

import (
	"testing"

	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/metrics"
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

func BenchmarkSTDMetric(b *testing.B) {
	t := benchWalk(4000)
	obf, err := lppm.NewGeoI().Obfuscate(mathx.NewRand(2), t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.STD(t, obf)
	}
}
