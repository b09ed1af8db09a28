package loadgen

import (
	"io"
	"net/http/httptest"
	"reflect"
	"testing"

	"mood/internal/attack"
	"mood/internal/service"
	"mood/internal/trace"
)

// oddAuditor deterministically condemns fragments owned by users whose
// ID ends in an odd digit — a stand-in for "the retrained attacks now
// re-identify these users".
type oddAuditor struct{}

func (oddAuditor) ReIdentifiesBatch(ts []trace.Trace, users []string) []attack.ReIdent {
	out := make([]attack.ReIdent, len(users))
	for i, user := range users {
		if len(user) == 0 {
			continue
		}
		last := user[len(user)-1]
		if last >= '0' && last <= '9' && (last-'0')%2 == 1 {
			out[i] = attack.ReIdent{Hit: true, Attack: "odd-auditor"}
		}
	}
	return out
}

func newLoadgenServer(t *testing.T, opts ...service.Option) (*service.Server, *httptest.Server) {
	t.Helper()
	srv, err := service.New(EchoProtector{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// runScenario builds cfg's workload and replays it against the server at
// baseURL.
func runScenario(cfg Config, baseURL string) (Report, error) {
	w, err := Build(cfg)
	if err != nil {
		return Report{}, err
	}
	return NewDriver(cfg, baseURL, io.Discard).RunWorkload(w)
}

func TestBuildIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Users: 6, Rounds: 2}
	w1, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same seed produced different workloads")
	}
	cfg.Seed = 12
	w3, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(w1.Rounds, w3.Rounds) {
		t.Fatal("different seeds produced identical workloads")
	}
	if len(w1.Rounds) == 0 || w1.Background.NumUsers() == 0 {
		t.Fatalf("degenerate workload: %d rounds, %d background users", len(w1.Rounds), w1.Background.NumUsers())
	}
}

func TestBuildRoundOpsAreDeterministic(t *testing.T) {
	cfg, err := Scenario("burst", 7, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1 := NewDriver(cfg, "http://unused", io.Discard)
	d2 := NewDriver(cfg, "http://unused", io.Discard)
	for i, r := range w.Rounds {
		ops1 := d1.buildRound(i+1, r.Data)
		ops2 := d2.buildRound(i+1, r.Data)
		if !reflect.DeepEqual(ops1, ops2) {
			t.Fatalf("round %d: op lists differ between identically-seeded drivers", i+1)
		}
	}
}

func TestSteadyScenarioReportIsGreenAndReproducible(t *testing.T) {
	cfg, err := Scenario("steady", 3, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Report {
		t.Helper()
		_, hs := newLoadgenServer(t)
		rep, err := runScenario(cfg, hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if !rep.OK {
		t.Fatalf("violations: %+v", rep.Violations)
	}
	if rep.Requests.Uploads == 0 || rep.Requests.Records == 0 {
		t.Fatalf("empty workload: %+v", rep.Requests)
	}
	if rep.Requests.Invalid == 0 {
		t.Fatalf("steady scenario sent no invalid requests: %+v", rep.Requests)
	}
	if rep.Stats.Uploads != rep.Requests.Uploads || rep.Stats.RecordsIn != rep.Requests.Records {
		t.Fatalf("tally/stats disagree: %+v vs %+v", rep.Requests, rep.Stats)
	}

	// A second run against a fresh server must produce the identical
	// report — the reproducibility contract the soak harness rests on.
	rep2 := run()
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("reports differ across runs:\n %+v\n %+v", rep, rep2)
	}
}

func TestBurstScenarioSurvivesBackpressure(t *testing.T) {
	cfg, err := Scenario("burst", 5, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny queue and one worker force shedding; the driver's keyed
	// retries must still net out to exactly-once delivery.
	_, hs := newLoadgenServer(t, service.WithWorkers(1), service.WithQueueDepth(1))
	rep, err := runScenario(cfg, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("violations: %+v", rep.Violations)
	}
	if rep.Requests.Replays == 0 {
		t.Fatalf("burst scenario produced no idempotent replays: %+v", rep.Requests)
	}
}

func TestDriftRetrainScenarioQuarantines(t *testing.T) {
	cfg, err := Scenario("drift-retrain", 9, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt := service.RetrainerFunc(func(history []trace.Trace) (service.Protector, service.Auditor, error) {
		return nil, oddAuditor{}, nil
	})
	srv, hs := newLoadgenServer(t, service.WithRetrainer(rt, 0))
	rep, err := runScenario(cfg, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("violations: %+v", rep.Violations)
	}
	if len(rep.Retrains) != 2 {
		t.Fatalf("retrain barriers = %d, want 2", len(rep.Retrains))
	}
	if rep.Stats.Retrains != 2 {
		t.Fatalf("server retrains = %d", rep.Stats.Retrains)
	}
	if rep.Stats.QuarantinedTraces == 0 {
		t.Fatal("odd-auditor retrains never quarantined — the barrier did not audit")
	}
	if srv.Stats().PublishedTraces+rep.Stats.QuarantinedTraces == 0 {
		t.Fatal("nothing published at all")
	}
	// The quarantine invariant held (no fragment published past its
	// quarantine) — rep.OK above covers it; double-check the dataset
	// shrank accordingly.
	if rep.Stats.PublishedTraces >= rep.Requests.Uploads {
		t.Fatalf("quarantine removed nothing: %+v", rep.Stats)
	}
}
