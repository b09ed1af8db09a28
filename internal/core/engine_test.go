package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mood/internal/attack"
	"mood/internal/lppm"
	"mood/internal/metrics"
	"mood/internal/synth"
	"mood/internal/trace"
)

// scenario bundles a trained environment shared by the core tests.
type scenario struct {
	train  trace.Dataset
	test   trace.Dataset
	lppms  []lppm.Mechanism
	atks   attack.Set
	engine *Engine
}

func newScenario(t *testing.T, seed uint64) *scenario {
	t.Helper()
	cfg := synth.MDCLike(synth.ScaleTiny, seed)
	cfg.NumUsers = 8
	cfg.Days = 8
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.SplitTrainTest(0.5, 20)

	hmc, err := lppm.NewHMC(0, train.Traces)
	if err != nil {
		t.Fatal(err)
	}
	lppms := []lppm.Mechanism{hmc, lppm.NewGeoI(), lppm.NewTRL()}

	atks := attack.DefaultSet()
	if err := attack.TrainAll(atks, train.Traces); err != nil {
		t.Fatal(err)
	}
	return &scenario{
		train: train,
		test:  test,
		lppms: lppms,
		atks:  atks,
		engine: &Engine{
			LPPMs:   lppms,
			Attacks: atks,
			Seed:    seed,
		},
	}
}

func TestProtectProducesResistantPieces(t *testing.T) {
	s := newScenario(t, 21)
	for _, tr := range s.test.Traces {
		res, err := s.engine.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Pieces {
			if p.Trace.Empty() {
				t.Fatalf("user %s: empty protected piece", tr.User)
			}
			// Every published piece must resist the full attack set.
			if hit, name := s.atks.ReIdentifies(p.Trace.WithUser(""), tr.User); hit {
				t.Fatalf("user %s: published piece re-identified by %s (mech %s)",
					tr.User, name, p.Mechanism)
			}
		}
	}
}

func TestProtectRecordAccounting(t *testing.T) {
	s := newScenario(t, 22)
	for _, tr := range s.test.Traces {
		res, err := s.engine.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalRecords != tr.Len() {
			t.Fatalf("TotalRecords = %d, want %d", res.TotalRecords, tr.Len())
		}
		var covered int
		for _, p := range res.Pieces {
			covered += p.SourceRecords
		}
		if covered+res.LostRecords != res.TotalRecords {
			t.Fatalf("user %s: covered %d + lost %d != total %d",
				tr.User, covered, res.LostRecords, res.TotalRecords)
		}
		if res.ProtectedRecords() != covered {
			t.Fatalf("ProtectedRecords = %d, want %d", res.ProtectedRecords(), covered)
		}
	}
}

func TestProtectDeterministic(t *testing.T) {
	s := newScenario(t, 23)
	tr := s.test.Traces[0]
	a, err := s.engine.Protect(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.engine.Protect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pieces) != len(b.Pieces) || a.LostRecords != b.LostRecords {
		t.Fatal("same seed produced structurally different results")
	}
	for i := range a.Pieces {
		if a.Pieces[i].Mechanism != b.Pieces[i].Mechanism {
			t.Fatal("mechanism choice not deterministic")
		}
		if a.Pieces[i].Trace.User != b.Pieces[i].Trace.User {
			t.Fatal("pseudonyms not deterministic")
		}
		for j := range a.Pieces[i].Trace.Records {
			if a.Pieces[i].Trace.Records[j] != b.Pieces[i].Trace.Records[j] {
				t.Fatal("published records not deterministic")
			}
		}
	}
}

func TestFineGrainedPiecesGetPseudonyms(t *testing.T) {
	s := newScenario(t, 24)
	for _, tr := range s.test.Traces {
		res, err := s.engine.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.UsedFineGrained {
			continue
		}
		seen := map[string]bool{}
		for _, p := range res.Pieces {
			if p.Depth == 0 {
				t.Fatal("fine-grained result contains a depth-0 piece")
			}
			u := p.Trace.User
			if u == tr.User {
				t.Fatalf("fine-grained piece kept the original identity %q", u)
			}
			if !strings.HasPrefix(u, "anon-") {
				t.Fatalf("pseudonym %q has wrong shape", u)
			}
			if seen[u] {
				t.Fatalf("pseudonym %q reused across pieces", u)
			}
			seen[u] = true
		}
	}
}

func TestProtectBeatsHybridOnProtection(t *testing.T) {
	s := newScenario(t, 25)
	hybrid := Hybrid{LPPMs: s.lppms, Attacks: s.atks, Seed: 25}

	moodLost, hybridLost := 0, 0
	moodUnprot, hybridUnprot := 0, 0
	for _, tr := range s.test.Traces {
		mr, err := s.engine.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := hybrid.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		moodLost += mr.LostRecords
		hybridLost += hr.LostRecords
		if !mr.FullyProtected() {
			moodUnprot++
		}
		if !hr.FullyProtected() {
			hybridUnprot++
		}
	}
	if moodLost > hybridLost {
		t.Fatalf("MooD lost more records than Hybrid: %d vs %d", moodLost, hybridLost)
	}
	if moodUnprot > hybridUnprot {
		t.Fatalf("MooD left more users unprotected than Hybrid: %d vs %d", moodUnprot, hybridUnprot)
	}
}

func TestProtectDatasetMatchesSequential(t *testing.T) {
	s := newScenario(t, 26)
	parallel, err := s.engine.ProtectDataset(s.test)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != s.test.NumUsers() {
		t.Fatalf("results = %d, want %d", len(parallel), s.test.NumUsers())
	}
	for i, tr := range s.test.Traces {
		seq, err := s.engine.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		p := parallel[i]
		if p.User != seq.User || len(p.Pieces) != len(seq.Pieces) || p.LostRecords != seq.LostRecords {
			t.Fatalf("user %s: parallel result differs from sequential", tr.User)
		}
		for j := range p.Pieces {
			if p.Pieces[j].Mechanism != seq.Pieces[j].Mechanism {
				t.Fatalf("user %s piece %d: mechanism differs", tr.User, j)
			}
		}
	}
}

// opaqueAttack hides an attack's concrete type, so the protection
// predicate must take its generic Identify branch — the shape of sets
// built from caller-supplied attacks or wrapped for tracing.
type opaqueAttack struct{ attack.Attack }

// TestGenericPredicateMatchesKernels runs the engine over the same
// dataset twice: with the trained attacks, which the predicate
// dispatches to their owner-seeded hit scans, and with every attack
// wrapped so the predicate can only ask Identify. Both must publish
// exactly the same results.
func TestGenericPredicateMatchesKernels(t *testing.T) {
	for _, seed := range []uint64{21, 26} {
		s := newScenario(t, seed)
		wrapped := make(attack.Set, len(s.atks))
		for i, a := range s.atks {
			wrapped[i] = opaqueAttack{a}
		}
		generic := *s.engine
		generic.Attacks = wrapped
		want, err := s.engine.ProtectDataset(s.test)
		if err != nil {
			t.Fatal(err)
		}
		got, err := generic.ProtectDataset(s.test)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the generic Identify branch published different results than the kernels", seed)
		}
	}
}

func TestPublishDatasetAndDataLoss(t *testing.T) {
	s := newScenario(t, 27)
	results, err := s.engine.ProtectDataset(s.test)
	if err != nil {
		t.Fatal(err)
	}
	pub := PublishDataset("protected", results)
	if err := pub.Validate(); err != nil {
		t.Fatal(err)
	}
	loss := DataLoss(results)
	if loss < 0 || loss > 1 {
		t.Fatalf("loss = %v", loss)
	}
	// Published pseudonymous traces must never reuse an original ID in
	// fine-grained mode; whole-trace pieces keep the original ID.
	for _, r := range results {
		if r.UsedFineGrained {
			for _, p := range r.Pieces {
				if p.Trace.User == r.User {
					t.Fatal("fine-grained piece leaked the original ID into publication")
				}
			}
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := &Engine{}
	if _, err := e.Protect(trace.Trace{User: "u"}); err == nil {
		t.Fatal("no LPPMs must error")
	}
	if _, err := e.ProtectDataset(trace.Dataset{}); err == nil {
		t.Fatal("no LPPMs must error")
	}
	s := newScenario(t, 28)
	if _, err := s.engine.Protect(trace.Trace{User: "empty"}); err == nil {
		t.Fatal("empty trace must error")
	}
}

func TestEngineDefaults(t *testing.T) {
	e := &Engine{}
	if e.delta() != DefaultDelta {
		t.Fatalf("delta = %v", e.delta())
	}
	if e.chunk() != DefaultChunk {
		t.Fatalf("chunk = %v", e.chunk())
	}
	if e.utility().Name() != "STD" {
		t.Fatalf("utility = %v", e.utility().Name())
	}
	if e.search().Name() != "brute" {
		t.Fatalf("search = %v", e.search().Name())
	}
}

func TestDeltaStopsRecursion(t *testing.T) {
	s := newScenario(t, 29)
	// With an enormous delta, the fine-grained stage cannot split at
	// all: chunks either protect whole or are lost.
	bigDelta := *s.engine
	bigDelta.Delta = 1000 * time.Hour
	for _, tr := range s.test.Traces {
		res, err := bigDelta.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SplitCount > 0 {
			t.Fatal("delta larger than any trace must prevent splits")
		}
	}
}

func TestMeanDistortion(t *testing.T) {
	r := Result{Pieces: []Piece{
		{Distortion: 100, SourceRecords: 10},
		{Distortion: 300, SourceRecords: 30},
	}}
	if got := r.MeanDistortion(); got != 250 {
		t.Fatalf("MeanDistortion = %v, want 250", got)
	}
	if got := (Result{}).MeanDistortion(); got != 0 {
		t.Fatalf("empty MeanDistortion = %v", got)
	}
}

func TestCustomUtilityWithOppositePolarity(t *testing.T) {
	// CoverageUtility scores higher-is-better; the selection logic must
	// still pick a protecting piece and prefer higher coverage.
	s := newScenario(t, 43)
	cov := *s.engine
	cov.Utility = metrics.CoverageUtility{}
	for _, tr := range s.test.Traces {
		res, err := cov.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Pieces {
			if p.Distortion < 0 || p.Distortion > 1 {
				t.Fatalf("coverage score out of range: %v", p.Distortion)
			}
			if hit, name := s.atks.ReIdentifies(p.Trace.WithUser(""), tr.User); hit {
				t.Fatalf("piece re-identified by %s under coverage utility", name)
			}
		}
	}
}
