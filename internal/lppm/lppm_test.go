package lppm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

var origin = geo.Point{Lat: 45.7640, Lon: 4.8357}

func rng() *mathx.Rand { return mathx.NewRand(42) }

// walkTrace is a 1-hour walk east, one record per minute.
func walkTrace(user string) trace.Trace {
	rs := make([]trace.Record, 60)
	for i := range rs {
		rs[i] = trace.At(geo.Offset(origin, float64(i)*80, 0), int64(i*60))
	}
	return trace.New(user, rs)
}

// namedMech is a test double.
type namedMech struct{ name string }

func (m namedMech) Name() string { return m.name }
func (m namedMech) Obfuscate(_ *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	// Tag the user so tests can observe application order.
	return trace.Trace{User: t.User + "+" + m.name, Records: t.Records}, nil
}

func mechs(names ...string) []Mechanism {
	out := make([]Mechanism, len(names))
	for i, n := range names {
		out[i] = namedMech{name: n}
	}
	return out
}

func TestChainAppliesInOrder(t *testing.T) {
	c := Chain{Mechs: mechs("a", "b", "c")}
	out, err := c.Obfuscate(rng(), walkTrace("u"))
	if err != nil {
		t.Fatal(err)
	}
	if out.User != "u+a+b+c" {
		t.Fatalf("application order wrong: %q", out.User)
	}
	if c.Name() != "a→b→c" {
		t.Fatalf("chain name = %q", c.Name())
	}
}

func TestChainEmptyErrors(t *testing.T) {
	if _, err := (Chain{}).Obfuscate(rng(), walkTrace("u")); err == nil {
		t.Fatal("empty chain must error")
	}
}

type failingMech struct{}

func (failingMech) Name() string { return "boom" }
func (failingMech) Obfuscate(_ *mathx.Rand, _ trace.Trace) (trace.Trace, error) {
	return trace.Trace{}, fmt.Errorf("exploded")
}

func TestChainPropagatesStageError(t *testing.T) {
	c := Chain{Mechs: []Mechanism{namedMech{"ok"}, failingMech{}}}
	_, err := c.Obfuscate(rng(), walkTrace("u"))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want stage name in error", err)
	}
}

// numCompositions computes |C| = Σ_{i=1..n} n!/(n−i)! without
// enumerating: the n singletons and CompositionsOnly's chains.
func numCompositions(n int) int {
	total := 0
	for i := 1; i <= n; i++ {
		term := 1
		for k := 0; k < i; k++ {
			term *= n - k
		}
		total += term
	}
	return total
}

func TestCompositionsCount(t *testing.T) {
	// The paper calls out |C| = 15 for n = 3.
	tests := []struct{ n, want int }{
		{1, 1}, {2, 4}, {3, 15}, {4, 64},
	}
	for _, tt := range tests {
		ms := mechs(letters(tt.n)...)
		if got := tt.n + len(CompositionsOnly(ms)); got != tt.want {
			t.Errorf("n=%d: %d compositions, want %d", tt.n, got, tt.want)
		}
		if got := numCompositions(tt.n); got != tt.want {
			t.Errorf("numCompositions(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestNumCompositionsMatchesEnumerationProperty(t *testing.T) {
	f := func(n uint8) bool {
		nn := int(n%5) + 1 // 1..5
		return nn+len(CompositionsOnly(mechs(letters(nn)...))) == numCompositions(nn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func letters(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}

func TestCompositionsDistinctAndOrdered(t *testing.T) {
	ms := mechs("a", "b", "c")
	all := CompositionsOnly(ms)
	seen := map[string]bool{}
	for _, c := range all {
		name := c.Name()
		if seen[name] {
			t.Fatalf("duplicate composition %q", name)
		}
		seen[name] = true
		// No mechanism repeats within one chain.
		parts := strings.Split(name, "→")
		inner := map[string]bool{}
		for _, p := range parts {
			if inner[p] {
				t.Fatalf("mechanism %q repeated in %q", p, name)
			}
			inner[p] = true
		}
	}
	// Shorter compositions first, as Algorithm 1 searches them.
	for i := 1; i < len(all); i++ {
		if all[i].Len() < all[i-1].Len() {
			t.Fatalf("composition %d (%q) is shorter than the one before it", i, all[i].Name())
		}
	}
}

func TestCompositionsOnly(t *testing.T) {
	ms := mechs("a", "b", "c")
	strict := CompositionsOnly(ms)
	if len(strict) != 12 { // 15 - 3 singletons
		t.Fatalf("|C - L| = %d, want 12", len(strict))
	}
	for _, c := range strict {
		if c.Len() < 2 {
			t.Fatalf("singleton %q in CompositionsOnly", c.Name())
		}
	}
}

func TestIdentity(t *testing.T) {
	in := walkTrace("u")
	out, err := Identity{}.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() || out.User != in.User {
		t.Fatal("identity changed the trace")
	}
	out.Records[0].Lat = 0
	if in.Records[0].Lat == 0 {
		t.Fatal("identity must deep-copy")
	}
}
