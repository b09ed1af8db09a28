package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLambertWm1KnownValues(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{-1 / math.E, -1},
		{-0.1, -3.577152063957297},
		{-0.01, -6.472775124394005},
		{-0.2, -2.542641357773526},
	}
	for _, tt := range tests {
		got := LambertWm1(tt.x)
		if math.Abs(got-tt.want) > 1e-7 {
			t.Errorf("Wm1(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestLambertWInverseProperty(t *testing.T) {
	// W(x)*exp(W(x)) == x must hold on the branch Geo-I samples.
	f := func(u float64) bool {
		x := -math.Abs(math.Mod(u, 1))/math.E + 1e-9 // x in (-1/e, 0]
		if x >= 0 {
			x = -1e-9
		}
		wm := LambertWm1(x)
		return math.Abs(wm*math.Exp(wm)-x) < 1e-9*(1+math.Abs(wm))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLambertWDomainErrors(t *testing.T) {
	if !math.IsNaN(LambertWm1(0.5)) {
		t.Error("Wm1(0.5) must be NaN")
	}
	if !math.IsNaN(LambertWm1(-10)) {
		t.Error("Wm1(-10) must be NaN")
	}
}

func TestTopsoeProperties(t *testing.T) {
	p := []float64{0.7, 0.2, 0.1}
	q := []float64{0.1, 0.3, 0.6}
	dpq := Topsoe(p, q)
	dqp := Topsoe(q, p)
	if math.Abs(dpq-dqp) > 1e-12 {
		t.Fatalf("Topsoe not symmetric: %v vs %v", dpq, dqp)
	}
	if dpq <= 0 {
		t.Fatalf("Topsoe(p,q) = %v, want > 0", dpq)
	}
	if d := Topsoe(p, p); d != 0 {
		t.Fatalf("Topsoe(p,p) = %v", d)
	}
	// Bounded by 2 ln 2 even for disjoint supports.
	d := Topsoe([]float64{1, 0}, []float64{0, 1})
	if math.Abs(d-2*math.Ln2) > 1e-12 {
		t.Fatalf("disjoint Topsoe = %v, want 2ln2", d)
	}
}

func TestTopsoeRaggedLengths(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.5, 0.25, 0.25}
	if d := Topsoe(p, q); d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("ragged Topsoe = %v", d)
	}
}

func TestJensenShannonBound(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		a, b, c, d = math.Abs(a)+1e-9, math.Abs(b)+1e-9, math.Abs(c)+1e-9, math.Abs(d)+1e-9
		p := []float64{a / (a + b), b / (a + b)}
		q := []float64{c / (c + d), d / (c + d)}
		js := Topsoe(p, q) / 2 // the Jensen-Shannon divergence
		return js >= 0 && js <= math.Ln2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {150, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}
