package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/attack"
	"mood/internal/clock"
	"mood/internal/core"
	"mood/internal/store"
	"mood/internal/trace"
)

// markedProtector admits everything and stamps each fragment's mechanism
// with its generation, so tests can see which engine handled an upload.
// Pseudonyms are numbered per call so fragments stay distinct in the
// published dataset.
type markedProtector struct {
	mark  string
	mu    sync.Mutex
	calls int
}

func (m *markedProtector) Protect(t trace.Trace) (core.Result, error) {
	m.mu.Lock()
	m.calls++
	n := m.calls
	m.mu.Unlock()
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces: []core.Piece{{
			Trace:         t.WithUser(fmt.Sprintf("anon-%s-%d", m.mark, n)),
			Mechanism:     m.mark,
			SourceRecords: t.Len(),
		}},
	}, nil
}

// ownerAuditor condemns every fragment whose owner has the configured
// prefix — a stand-in for "the retrained attacks now re-identify this
// user's published data".
type ownerAuditor struct {
	prefix string
}

func (a ownerAuditor) ReIdentifiesBatch(ts []trace.Trace, users []string) []attack.ReIdent {
	out := make([]attack.ReIdent, len(users))
	for i, user := range users {
		if strings.HasPrefix(user, a.prefix) {
			out[i] = attack.ReIdent{Hit: true, Attack: "owner-auditor"}
		}
	}
	return out
}

// auditedProtector is a retrained fake engine that agrees with its own
// auditor: it rejects whole every trace a re-identifies and hands the
// rest to p.
type auditedProtector struct {
	p Protector
	a Auditor
}

func (e auditedProtector) Protect(t trace.Trace) (core.Result, error) {
	if e.a.ReIdentifiesBatch([]trace.Trace{t}, []string{t.User})[0].Hit {
		return core.Result{User: t.User, TotalRecords: t.Len(), LostRecords: t.Len()}, nil
	}
	return e.p.Protect(t)
}

func newRetrainServer(t *testing.T, rt Retrainer, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	opts = append([]Option{WithRetrainer(rt, 0)}, opts...)
	srv, err := New(&markedProtector{mark: "gen0"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func TestRetrainSwapsProtectorAndQuarantines(t *testing.T) {
	var gen int
	var mu sync.Mutex
	var seenHistory []trace.Trace
	rt := RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		mu.Lock()
		gen++
		g := gen
		seenHistory = history
		mu.Unlock()
		return &markedProtector{mark: fmt.Sprintf("gen%d", g)}, ownerAuditor{prefix: "drift-"}, nil
	})
	_, hs := newRetrainServer(t, rt)
	c := NewClient(hs.URL)

	mustUpload(t, c, trace.New("alice", sampleRecords(10)))
	mustUpload(t, c, trace.New("drift-bob", sampleRecords(8)))

	// Both fragments published, both admitted by the startup engine.
	d, err := c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 2 {
		t.Fatalf("published %d fragments before retrain, want 2", d.NumUsers())
	}

	report, err := c.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if report.Audited != 2 || report.Quarantined != 1 {
		t.Fatalf("report = %+v, want audited 2, quarantined 1", report)
	}
	if report.HistoryUsers != 2 || report.HistoryRecords != 18 {
		t.Fatalf("report history = %d users / %d records, want 2/18", report.HistoryUsers, report.HistoryRecords)
	}
	mu.Lock()
	for _, h := range seenHistory {
		if err := h.Validate(); err != nil {
			t.Errorf("history trace %s not time-sorted: %v", h.User, err)
		}
	}
	mu.Unlock()

	// drift-bob's fragment left the dataset; alice's stayed.
	d, err = c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 1 || !strings.HasPrefix(d.Traces[0].User, "anon-gen0-") {
		t.Fatalf("dataset after quarantine = %v", d.Users())
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuarantinedTraces != 1 || st.RecordsQuarantined != 8 {
		t.Fatalf("stats quarantine = %d traces / %d records, want 1/8", st.QuarantinedTraces, st.RecordsQuarantined)
	}
	if st.PublishedTraces != 1 || st.Retrains != 1 {
		t.Fatalf("stats = %+v", st)
	}
	us, err := c.UserStats("drift-bob")
	if err != nil {
		t.Fatal(err)
	}
	if us.PiecesQuarantined != 1 || us.RecordsQuarantined != 8 {
		t.Fatalf("drift-bob stats = %+v", us)
	}

	// Uploads now run on the swapped engine.
	resp := mustUpload(t, c, trace.New("carol", sampleRecords(4)))
	if len(resp.Mechanisms) != 1 || resp.Mechanisms[0] != "gen1" {
		t.Fatalf("post-swap upload used %v, want gen1", resp.Mechanisms)
	}
}

func TestRetrainHotSwapHasNoUploadDowntime(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{})
	rt := RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		close(entered)
		<-block
		return &markedProtector{mark: "gen1"}, nil, nil
	})
	srv, hs := newRetrainServer(t, rt)
	c := NewClient(hs.URL)

	mustUpload(t, c, trace.New("alice", sampleRecords(3)))

	retrained := make(chan error, 1)
	go func() {
		_, err := srv.Retrain()
		retrained <- err
	}()
	<-entered

	// The retrainer is mid-rebuild: uploads must keep flowing on the old
	// engine, not wait for the swap.
	for i := 0; i < 5; i++ {
		resp := mustUpload(t, c, trace.New(fmt.Sprintf("user-%d", i), sampleRecords(2)))
		if resp.Mechanisms[0] != "gen0" {
			t.Fatalf("upload during retrain used %v, want gen0", resp.Mechanisms)
		}
	}

	close(block)
	if err := <-retrained; err != nil {
		t.Fatal(err)
	}
	resp := mustUpload(t, c, trace.New("late", sampleRecords(2)))
	if resp.Mechanisms[0] != "gen1" {
		t.Fatalf("upload after retrain used %v, want gen1", resp.Mechanisms)
	}
}

func TestRetrainEndpointWithoutRetrainerIs404(t *testing.T) {
	_, hs := newTestServer(t)
	c := NewClient(hs.URL)
	if _, err := c.Retrain(); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("retrain without retrainer: %v", err)
	}
}

func TestRetrainErrorKeepsServing(t *testing.T) {
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		return nil, nil, fmt.Errorf("no converged model yet")
	})
	_, hs := newRetrainServer(t, rt)
	c := NewClient(hs.URL)

	if _, err := c.Retrain(); err == nil || !strings.Contains(err.Error(), "no converged model") {
		t.Fatalf("retrain error = %v", err)
	}
	resp := mustUpload(t, c, trace.New("alice", sampleRecords(2)))
	if resp.Mechanisms[0] != "gen0" {
		t.Fatalf("upload after failed retrain used %v, want the original engine", resp.Mechanisms)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retrains != 0 {
		t.Fatalf("failed retrain counted: %+v", st)
	}
}

func TestHistoryCapBoundsPerUserHistory(t *testing.T) {
	var mu sync.Mutex
	var got []trace.Trace
	rt := RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		mu.Lock()
		got = history
		mu.Unlock()
		return nil, nil, nil
	})
	srv, hs := newRetrainServer(t, rt, WithHistoryCap(5))
	c := NewClient(hs.URL)

	mustUpload(t, c, trace.New("alice", sampleRecords(8)))
	mustUpload(t, c, trace.New("alice", sampleRecords(4)))
	if _, err := srv.Retrain(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].User != "alice" {
		t.Fatalf("history = %v", got)
	}
	if got[0].Len() != 5 {
		t.Fatalf("history kept %d records, want cap 5", got[0].Len())
	}
}

func TestNoHistoryWithoutRetrainer(t *testing.T) {
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)
	mustUpload(t, c, trace.New("alice", sampleRecords(6)))
	if h := srv.historySnapshot(); len(h) != 0 {
		t.Fatalf("history accumulated without a retrainer: %v", h)
	}
}

func TestPeriodicRetrainLoop(t *testing.T) {
	const interval = time.Minute
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	passes := make(chan struct{}, 64)
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		select {
		case passes <- struct{}{}:
		default:
		}
		return nil, nil, nil
	})
	srv, err := New(&markedProtector{mark: "gen0"}, WithClock(clk), WithRetrainer(rt, interval))
	if err != nil {
		t.Fatal(err)
	}
	waitPass := func(what string) {
		t.Helper()
		select {
		case <-passes:
		case <-time.After(5 * time.Second):
			srv.Close()
			t.Fatalf("periodic retrain never fired (%s)", what)
		}
	}
	// tick advances virtual time by one interval and joins the loop's
	// processing of that tick, so every assertion below is about a tick
	// that has provably been consumed — no wall-clock sleeps, no races.
	tick := func(what string) {
		t.Helper()
		before := srv.retrainTicks.Load()
		clk.Advance(interval)
		deadline := time.After(5 * time.Second)
		for srv.retrainTicks.Load() == before {
			select {
			case <-deadline:
				srv.Close()
				t.Fatalf("tick never processed (%s)", what)
			default:
				runtime.Gosched()
			}
		}
	}

	clk.BlockUntil(1) // the loop's ticker is registered
	tick("first tick")
	waitPass("first tick")

	// No history change since the pass: further ticks must be skipped —
	// the rebuilt engine would be identical.
	for i := 0; i < 3; i++ {
		tick("idle tick")
	}
	if len(passes) != 0 {
		srv.Close()
		t.Fatal("idle ticks retrained on unchanged history")
	}

	// New history arrives; the next tick retrains again.
	if _, err := srv.protectAndCommit(trace.New("alice", sampleRecords(2))); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	tick("after new history")
	waitPass("after new history")

	// Close must stop the loop and join it (no goroutine leak, no tick
	// after shutdown). Advancing virtual time afterwards cannot revive
	// it: Close joined the loop goroutine, so nothing is listening.
	srv.Close()
	clk.Advance(10 * interval)
	if len(passes) != 0 {
		t.Fatal("retrain ticked after Close")
	}
}

// TestRetrainLoopRetrainsRestoredHistory: a node recovered from a
// checkpoint alone, whose restored retrain count says a pass ran before
// the restart, retrains on the restored history inside Recover — before
// it serves — and the first periodic tick, with nothing new to learn,
// skips.
func TestRetrainLoopRetrainsRestoredHistory(t *testing.T) {
	const interval = time.Minute
	passes := make(chan struct{}, 2) // room for one pass per server; more never block
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		select {
		case passes <- struct{}{}:
		default:
		}
		return nil, nil, nil
	})
	disk := store.NewMemFS()
	srvA, _ := newWALServer(t, disk, &fakeProtector{}, WithRetrainer(rt, 0))
	if _, err := srvA.protectAndCommit(trace.New("alice", sampleRecords(4))); err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Retrain(); err != nil {
		t.Fatal(err)
	}
	<-passes
	// Close writes the final checkpoint and prunes the log it covers.
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	srvB, _ := newWALServer(t, disk, &fakeProtector{}, WithClock(clk), WithRetrainer(rt, interval))
	if got := srvB.Stats().Retrains; got != 1 {
		t.Fatalf("restored retrains = %d, want 1", got)
	}
	if h := srvB.historySnapshot(); len(h) != 1 {
		t.Fatalf("restored history holds %d users, want 1", len(h))
	}
	if len(passes) != 1 {
		t.Fatalf("Recover ran %d passes over the restored history, want 1", len(passes))
	}
	clk.BlockUntil(1) // the loop's ticker is registered
	before := srvB.retrainTicks.Load()
	clk.Advance(interval)
	deadline := time.After(5 * time.Second)
	for srvB.retrainTicks.Load() == before {
		select {
		case <-deadline:
			t.Fatal("tick never processed")
		default:
			runtime.Gosched()
		}
	}
	if len(passes) != 1 {
		t.Fatalf("first tick after the restore pass retrained again (%d passes)", len(passes))
	}
	if got := srvB.Stats().Retrains; got != 1 {
		t.Fatalf("retrains after the restore pass = %d, want the restored 1", got)
	}
}

// clockedAuditor admits every fragment and moves the clock by step per
// fragment judged.
type clockedAuditor struct {
	clk  *clock.Manual
	step time.Duration
}

func (a clockedAuditor) ReIdentifiesBatch(ts []trace.Trace, _ []string) []attack.ReIdent {
	a.clk.Advance(time.Duration(len(ts)) * a.step)
	return make([]attack.ReIdent, len(ts))
}

// TestRetrainReportPhases: the report splits the pass into its train
// and audit phases on the injected clock, in fractional milliseconds,
// and leaves both off the wire when they took no time.
func TestRetrainReportPhases(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	var passes atomic.Int32
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		if passes.Add(1) > 1 { // later passes take no time
			return nil, clockedAuditor{clk: clk}, nil
		}
		clk.Advance(7500 * time.Microsecond)
		return nil, clockedAuditor{clk: clk, step: 2250 * time.Microsecond}, nil
	})
	srv, hs := newRetrainServer(t, rt, WithClock(clk))
	if _, err := srv.protectAndCommit(trace.New("alice", sampleRecords(3))); err != nil {
		t.Fatal(err)
	}
	report, err := srv.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	want := RetrainReport{HistoryUsers: 1, HistoryRecords: 3, Audited: 1,
		DurationMillis: 9, TrainMillis: 7.5, AuditMillis: 2.25}
	if report != want {
		t.Fatalf("report = %+v, want %+v", report, want)
	}

	resp, err := http.Post(hs.URL+"/v2/admin/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || strings.Contains(string(body), "train_ms") ||
		strings.Contains(string(body), "audit_ms") {
		t.Fatalf("instant pass answered %d %s, want 200 without phase timings", resp.StatusCode, body)
	}
}

// TestRetrainReportSchemaMatchesStruct keeps the OpenAPI RetrainReport
// in lockstep with the struct's JSON fields.
func TestRetrainReportSchemaMatchesStruct(t *testing.T) {
	props := openapiSchemas()["RetrainReport"].(map[string]any)["properties"].(map[string]any)
	documented := sortedKeys(props)
	var fields []string
	rt := reflect.TypeOf(RetrainReport{})
	for i := 0; i < rt.NumField(); i++ {
		fields = append(fields, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
	}
	sort.Strings(fields)
	if !reflect.DeepEqual(documented, fields) {
		t.Fatalf("OpenAPI RetrainReport documents %v, the struct encodes %v", documented, fields)
	}
}

func TestConcurrentRetrainCoalesces(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		once.Do(func() {
			close(entered)
			<-block
		})
		return nil, nil, nil
	})
	srv, hs := newRetrainServer(t, rt)
	c := NewClient(hs.URL)

	first := make(chan error, 1)
	go func() {
		_, err := srv.Retrain()
		first <- err
	}()
	<-entered

	// A second pass while one is running must not queue behind it.
	if _, err := srv.Retrain(); err != ErrRetrainInProgress {
		t.Fatalf("concurrent Retrain = %v, want ErrRetrainInProgress", err)
	}
	if _, err := c.Retrain(); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("concurrent admin retrain = %v, want 409", err)
	}

	close(block)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// With the pass finished, retraining works again.
	if _, err := srv.Retrain(); err != nil {
		t.Fatal(err)
	}
}

// gateProtector blocks inside Protect for users with the "slow-" prefix
// until released, simulating an upload whose protection is in flight
// while a retrain pass swaps the engine.
type gateProtector struct {
	inner   markedProtector
	entered chan struct{}
	release chan struct{}
}

func (g *gateProtector) Protect(t trace.Trace) (core.Result, error) {
	if strings.HasPrefix(t.User, "slow-") {
		close(g.entered)
		<-g.release
	}
	return g.inner.Protect(t)
}

// TestCommitRacingSwapIsSelfAudited is the regression test for the
// audit-gap race: an upload that loaded the pre-swap engine and commits
// after the retrain's re-audit pass finished must re-audit its own
// fragments, or a stale-verifier admission would stay published forever.
func TestCommitRacingSwapIsSelfAudited(t *testing.T) {
	gp := &gateProtector{
		inner:   markedProtector{mark: "gen0"},
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		return nil, ownerAuditor{prefix: "slow-"}, nil
	})
	srv, err := New(gp, WithRetrainer(rt, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	done := make(chan error, 1)
	go func() {
		_, err := srv.protectAndCommit(trace.New("slow-alice", sampleRecords(6)))
		done <- err
	}()
	<-gp.entered

	// The engine swaps (and the re-audit pass runs over an empty
	// dataset) while slow-alice's protection is still in flight.
	report, err := srv.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if report.Audited != 0 {
		t.Fatalf("audit pass saw %d fragments before the commit", report.Audited)
	}

	close(gp.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The commit landed after the audit pass, admitted by the stale
	// engine — the self-audit must have quarantined it.
	st := srv.Stats()
	if st.PublishedTraces != 0 || st.QuarantinedTraces != 1 || st.RecordsQuarantined != 6 {
		t.Fatalf("racing commit escaped the re-audit: %+v", st)
	}
	us, err := userStatsOf(srv, "slow-alice")
	if err != nil {
		t.Fatal(err)
	}
	if us.PiecesQuarantined != 1 {
		t.Fatalf("owner accounting missed the self-audit: %+v", us)
	}
}

// userStatsOf reads one user's accounting directly off the shards.
func userStatsOf(s *Server, user string) (out UserStats, err error) {
	err = fmt.Errorf("unknown user %q", user)
	s.shard(user).locked(func(st *shardState) {
		if us := st.users[user]; us != nil {
			out, err = *us, nil
		}
	})
	return out, err
}

// TestHistorySnapshotSharesStableRecords: historySnapshot hands the
// retrainer the shards' own record arrays, which is sound only while
// nothing writes a record a captured header covers. A snapshot taken
// after the first uploads must still equal its deep copy after more
// chunks join the same histories, one user is pushed past the history
// cap (a trim), and retrain passes read — and join — every history
// concurrently: under -race, any write into a shared array is a
// reported race. A one-segment history is shared as it is, a longer one
// is joined once and the join is kept, and a user uploaded out of time
// order comes back sorted.
func TestHistorySnapshotSharesStableRecords(t *testing.T) {
	const histCap = 195
	var passes atomic.Int64
	started := make(chan struct{})
	rt := RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		var sum float64
		for _, h := range history {
			for _, r := range h.Records {
				sum += r.Lat + float64(r.TS)
			}
		}
		if sum == 0 && len(history) > 0 {
			return nil, nil, fmt.Errorf("history reads as zeros")
		}
		if passes.Add(1) == 1 {
			close(started)
		}
		return nil, nil, nil
	})
	srv, hs := newRetrainServer(t, rt, WithHistoryCap(histCap))
	c := NewClient(hs.URL)
	chunk := func(user string, n int, from int64) trace.Trace {
		recs := sampleRecords(n)
		for i := range recs {
			recs[i].TS += from
		}
		return trace.Trace{User: user, Records: recs}
	}
	mustUpload(t, c, chunk("alice", 30, 0))
	mustUpload(t, c, chunk("alice", 30, 3600))
	mustUpload(t, c, chunk("bob", 190, 0))
	mustUpload(t, c, chunk("carol", 20, 86400))
	mustUpload(t, c, chunk("carol", 20, 0))

	// Alice's history is two uploads, which the snapshot joins; bob's
	// is one upload, shared as it is, with room for the two chunks that
	// take it past the cap.
	if a, b := historyOf(srv, "alice"), historyOf(srv, "bob"); len(a) != 2 || len(b) != 1 {
		t.Fatalf("alice's history is %d segments, bob's %d: the test would not join or share", len(a), len(b))
	}
	bobLive := historyOf(srv, "bob")[0]
	snap := srv.historySnapshot()
	deep := make([]trace.Trace, len(snap))
	for i, h := range snap {
		deep[i] = trace.Trace{User: h.User, Records: slices.Clone(h.Records)}
	}
	if len(snap) != 3 || snap[0].User != "alice" || snap[2].User != "carol" {
		t.Fatalf("snapshot users %v", snap)
	}
	if &snap[1].Records[0] != &bobLive[0] || cap(snap[1].Records) != len(snap[1].Records) {
		t.Fatal("an in-order history must be shared by slice header, capacity clipped")
	}
	if a := historyOf(srv, "alice"); len(a) != 1 || &a[0][0] != &snap[0].Records[0] ||
		cap(snap[0].Records) != len(snap[0].Records) || len(snap[0].Records) != 60 {
		t.Fatal("a joined in-order history must be shared, capacity clipped, and kept in place of its segments")
	}
	if carol := snap[2].Records; !slices.IsSortedFunc(carol, func(a, b trace.Record) int { return int(a.TS - b.TS) }) ||
		len(carol) != 40 || &carol[0] == &historyOf(srv, "carol")[0][0] {
		t.Fatal("an out-of-order history must come back as a sorted copy")
	}

	const appends = 10
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		<-started
		for i := int64(0); i < 10; i++ {
			chunks := []trace.Trace{chunk("bob", 5, 86400*(i+1)), chunk("carol", 3, 2*86400+i*600), chunk("alice", 1, 7200+i*600)}
			for _, tr := range chunks {
				if _, err := c.UploadBatch([]BatchChunk{{User: tr.User, Records: tr.Records}}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			if _, err := srv.Retrain(); err != nil && err != ErrRetrainInProgress {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for {
		select {
		case <-done:
		default:
			if !reflect.DeepEqual(snap, deep) {
				t.Fatal("a captured history changed while uploads and retrains ran")
			}
			continue
		}
		break
	}
	wg.Wait()

	if !reflect.DeepEqual(snap, deep) {
		t.Fatal("a captured history changed under later uploads")
	}
	if a := historyOf(srv, "alice").join(); len(a) != 60+appends || !slices.Equal(a[:60], deep[0].Records) {
		t.Fatalf("alice's history (%d records) did not keep its first uploads and add the later ones", len(a))
	}
	if b := historyOf(srv, "bob").join(); len(b) != histCap || b[0] == snap[1].Records[0] {
		t.Fatalf("bob's history (%d records) was not trimmed to the cap", len(b))
	}
}
