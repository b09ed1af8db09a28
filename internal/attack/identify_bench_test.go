package attack

import (
	"testing"

	"mood/internal/synth"
	"mood/internal/trace"
)

// identifyEnv is the attack set trained on half of a 10-user tiny
// Geolife-like dataset, and the other half to identify.
func identifyEnv(b *testing.B) (test trace.Dataset, atks Set) {
	b.Helper()
	cfg := synth.GeolifeLike(synth.ScaleTiny, 42)
	cfg.NumUsers = 10
	d, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	train, test := d.SplitTrainTest(0.5, 20)
	atks = DefaultSet()
	if err := TrainAll(atks, train.Traces); err != nil {
		b.Fatal(err)
	}
	return test, atks
}

func BenchmarkAttackIdentify(b *testing.B) {
	test, atks := identifyEnv(b)
	t := test.Traces[0]
	for _, a := range atks {
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = a.Identify(t)
			}
		})
	}
}
