package synth

import "testing"

func BenchmarkSynthGenerate(b *testing.B) {
	cfg := MDCLike(ScaleTiny, 9)
	cfg.NumUsers = 4
	cfg.Days = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
