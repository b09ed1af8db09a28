package lppm

import (
	"math"
	"testing"

	"mood/internal/heatmap"
	"mood/internal/mathx"
	"mood/internal/synth"
	"mood/internal/trace"
)

// oracleTarget is pickTarget without either shortcut: the exhaustive
// exact first-minimum scan over every other user's profile.
func oracleTarget(h *HMC, user string, src *heatmap.Frozen) *hmcProfile {
	var best *hmcProfile
	bestD := math.Inf(1)
	for i := range h.profiles {
		p := &h.profiles[i]
		if p.user == user {
			continue
		}
		if d := src.Topsoe(p.frozen); d < bestD {
			bestD = d
			best = p
		}
	}
	return best
}

// TestPickTargetMatchesExactScan: the pruned scan picks the exact
// scan's profile — the same profile, not just an equally close one — on
// random backgrounds that hold exact duplicates (ties the first-minimum
// rule must break toward the earlier profile) and the probed user's own
// profile, for probes that are fresh wanders and for probes that copy a
// background trace (divergence 0 to it and to its duplicates).
func TestPickTargetMatchesExactScan(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := mathx.NewRand(seed)
		var bg []trace.Trace
		for i := 0; i < 6+rng.Intn(20); i++ {
			tr := randomTrace(int64(seed)*100+int64(i), 5+rng.Intn(200))
			tr.User = "u" + string(rune('a'+i))
			bg = append(bg, tr)
			if rng.Intn(3) == 0 { // an exact duplicate under another ID
				dup := tr
				dup.User = tr.User + "-dup"
				bg = append(bg, dup)
			}
		}
		h, err := NewHMC(0, bg)
		if err != nil {
			t.Fatal(err)
		}
		var probes []trace.Trace
		for i := 0; i < 8; i++ {
			in := randomTrace(int64(seed)*1000+int64(i), 10+rng.Intn(100))
			in.User = bg[rng.Intn(len(bg))].User
			probes = append(probes, in)
			copied := bg[rng.Intn(len(bg))]
			copied.User = bg[rng.Intn(len(bg))].User
			probes = append(probes, copied)
		}
		for i, in := range probes {
			src := heatmap.FrozenFromTrace(h.grid, in)
			got := h.pickTarget(in.User, src, src.Quantize())
			if want := oracleTarget(h, in.User, src); got != want {
				t.Fatalf("seed %d, probe %d (%s): pruned scan picked %v, exact scan %v",
					seed, i, in.User, profileUser(got), profileUser(want))
			}
		}
	}
}

func profileUser(p *hmcProfile) string {
	if p == nil {
		return "<none>"
	}
	return p.user
}

// hmcSink keeps the benchmarked translations live.
var hmcSink trace.Trace

// BenchmarkHMCObfuscate times HMC on a 100-user background: "pruned" is
// Obfuscate, "exact" the same translation behind the exhaustive exact
// target scan.
func BenchmarkHMCObfuscate(b *testing.B) {
	cfg := synth.MDCLike(synth.ScaleTiny, 42)
	cfg.NumUsers = 100
	d, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	train, test := d.SplitTrainTest(0.5, 20)
	h, err := NewHMC(0, train.Traces)
	if err != nil {
		b.Fatal(err)
	}
	in := test.Traces[0]
	b.Run("pruned", func(b *testing.B) {
		rng := mathx.NewRand(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := h.Obfuscate(rng, in)
			if err != nil {
				b.Fatal(err)
			}
			hmcSink = out
		}
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := heatmap.FrozenFromTrace(h.grid, in)
			hmcSink = h.imitate(in, src, oracleTarget(h, in.User, src))
		}
	})
}
