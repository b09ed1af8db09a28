package synth

import "testing"

func BenchmarkSynthGenerate(b *testing.B) {
	cfg := MDCLike(ScaleTiny, 9)
	cfg.NumUsers = 4
	cfg.Days = 4
	benchmarkGenerate(b, cfg)
}

// BenchmarkSynthGenerateCity generates one city of the benchmark
// harness's ingest-mood-node workload: 141 MDC-like users over 20 days,
// enough users for the per-user fan-out to show.
func BenchmarkSynthGenerateCity(b *testing.B) {
	cfg := MDCLike(ScalePaper, 1)
	cfg.NumUsers = 141
	cfg.Days = 20
	benchmarkGenerate(b, cfg)
}

func benchmarkGenerate(b *testing.B, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
