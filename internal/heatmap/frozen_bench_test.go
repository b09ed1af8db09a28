package heatmap

import (
	"testing"

	"mood/internal/mathx"
)

// BenchmarkFrozenTopsoe compares one heatmap divergence through the
// frozen merge walk against the dense oracle path it replaced.
// The two produce bit-identical values (see the property test); the walk
// must additionally run at 0 allocs/op.
func BenchmarkFrozenTopsoe(b *testing.B) {
	rng := mathx.NewRand(9)
	a := randomHeatmap(rng, 400, 40)
	o := randomHeatmap(rng, 400, 40)
	fa, fo := a.Freeze(), o.Freeze()
	want := fa.Topsoe(fo)

	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d := fa.Topsoe(fo); d != want {
				b.Fatalf("divergence drifted: %v != %v", d, want)
			}
		}
	})
	b.Run("dense-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d := oracleTopsoe(a, o); d != want {
				b.Fatalf("divergence drifted: %v != %v", d, want)
			}
		}
	})
}
