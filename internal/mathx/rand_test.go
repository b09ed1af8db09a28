package mathx

import (
	"fmt"
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDeriveRandLabelsIndependent(t *testing.T) {
	a := DeriveRand(1, "geoi", "user-1")
	b := DeriveRand(1, "geoi", "user-2")
	c := DeriveRand(1, "geoi", "user-1")
	var eqAB, eqAC int
	for i := 0; i < 50; i++ {
		av, bv, cv := a.Float64(), b.Float64(), c.Float64()
		if av == bv {
			eqAB++
		}
		if av == cv {
			eqAC++
		}
	}
	if eqAB > 5 {
		t.Fatal("distinct labels produced correlated streams")
	}
	if eqAC != 50 {
		t.Fatal("same labels must reproduce the stream")
	}
}

func TestDeriveRandLabelBoundaries(t *testing.T) {
	// ("ab","c") and ("a","bc") must not collide thanks to separators.
	s1 := DeriveSeed(7, "ab", "c")
	s2 := DeriveSeed(7, "a", "bc")
	if s1 == s2 {
		t.Fatal("label concatenation collision")
	}
}

func TestSamplePlanarLaplaceRadiusMean(t *testing.T) {
	rng := NewRand(11)
	const eps = 0.01 // paper's medium privacy level, mean radius 200 m
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		r := SamplePlanarLaplaceRadius(rng, eps)
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("invalid radius %v", r)
		}
		sum += r
	}
	mean := sum / n
	want := 2 / eps
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("planar Laplace mean radius = %v, want ~%v", mean, want)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := NewRand(3)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	orig := map[int]bool{}
	for _, x := range xs {
		orig[x] = true
	}
	Shuffle(rng, xs)
	if len(xs) != 8 {
		t.Fatal("length changed")
	}
	for _, x := range xs {
		if !orig[x] {
			t.Fatalf("element %v appeared from nowhere", x)
		}
	}
}

func TestChoice(t *testing.T) {
	rng := NewRand(5)
	xs := []string{"a", "b", "c"}
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		seen[Choice(rng, xs)]++
	}
	for _, s := range xs {
		if seen[s] < 50 {
			t.Fatalf("choice %q underrepresented: %v", s, seen)
		}
	}
}

// TestReseedMatchesDeriveRand: a generator reseeded for a label set
// yields the stream DeriveRand builds for it, whatever the generator
// drew before — including a partly consumed Read, whose position Seed
// must reset too.
func TestReseedMatchesDeriveRand(t *testing.T) {
	var r *Rand
	for i := 0; i < 1000; i++ {
		labels := []string{"mood", fmt.Sprintf("user-%d", i%37), fmt.Sprintf("%d.b", i), "geoi"}
		if i%2 == 0 {
			labels = append(labels[:2], labels[3])
		}
		want := DeriveRand(uint64(i%5), labels...)
		r = Reseed(r, uint64(i%5), labels...)
		var a, b [3]byte
		for k := 0; k < 20; k++ {
			want.Read(a[:]) //nolint:errcheck // never fails
			r.Read(b[:])    //nolint:errcheck
			if a != b || want.Int63() != r.Int63() || want.Float64() != r.Float64() || want.NormFloat64() != r.NormFloat64() {
				t.Fatalf("label set %d %q: reseeded stream departs from DeriveRand's at draw %d", i, labels, k)
			}
		}
	}
}
