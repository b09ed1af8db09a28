package service

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"mood/internal/attack"
	"mood/internal/geo"
	"mood/internal/store"
	"mood/internal/trace"
)

// regionRecords puts n records on a short walk around base, one per
// minute — enough support for the AP heatmaps to tell regions apart.
func regionRecords(base geo.Point, n int) []trace.Record {
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.At(geo.Offset(base, float64(i%5)*15, 0), int64(1000+i*60))
	}
	return rs
}

// oracleAuditor judges pair by pair with the Identify-loop predicate —
// each attack's full argmin in set order, first hit wins — the oracle
// the set's owner-seeded batch scans must agree with.
type oracleAuditor struct{ set attack.Set }

func (a oracleAuditor) ReIdentifiesBatch(ts []trace.Trace, users []string) []attack.ReIdent {
	out := make([]attack.ReIdent, len(ts))
	for i, t := range ts {
		for _, atk := range a.set {
			if v := atk.Identify(t); v.OK && v.User == users[i] {
				out[i] = attack.ReIdent{Hit: true, Attack: atk.Name()}
				break
			}
		}
	}
	return out
}

// TestBatchAuditQuarantinesSameSetAsScalar drives two identically
// loaded servers through a retrain-triggered audit — one judging with
// the attack set's batched predicate, one with the Identify-loop
// oracle — and demands the exact same audit report, surviving dataset
// and quarantine stats. This is the service-level face of the batch
// kernels' bit-identical guarantee.
func TestBatchAuditQuarantinesSameSetAsScalar(t *testing.T) {
	regions := map[string]geo.Point{
		"alice": {Lat: 45.70, Lon: 4.80},
		"bob":   {Lat: 48.85, Lon: 2.35},
		"carol": {Lat: 52.52, Lon: 13.40},
	}
	var background []trace.Trace
	for user, base := range regions {
		background = append(background, trace.New(user, regionRecords(base, 30)))
	}
	sort.Slice(background, func(i, j int) bool { return background[i].User < background[j].User })
	set := attack.Set{attack.NewAP()}
	if err := attack.TrainAll(set, background); err != nil {
		t.Fatal(err)
	}

	run := func(aud Auditor) (RetrainReport, []string, StatsPayload) {
		rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
			return nil, aud, nil
		})
		srv, hs := newRetrainServer(t, rt)
		c := NewClient(hs.URL)
		// Known users upload data from their profiled regions (the
		// audit must condemn these), a stranger uploads from far away
		// (no profile can claim it, so it survives).
		for _, user := range []string{"alice", "bob", "carol"} {
			mustUpload(t, c, trace.New(user, regionRecords(regions[user], 20)))
		}
		mustUpload(t, c, trace.New("dave", regionRecords(geo.Point{Lat: -33.9, Lon: 151.2}, 20)))
		report, err := srv.Retrain()
		if err != nil {
			t.Fatal(err)
		}
		d, err := c.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		users := d.Users()
		sort.Strings(users)
		return report, users, srv.statsPayload()
	}

	batchReport, batchUsers, batchStats := run(set)
	oracleReport, oracleUsers, oracleStats := run(oracleAuditor{set: set})

	if batchReport.Audited != oracleReport.Audited || batchReport.Quarantined != oracleReport.Quarantined {
		t.Fatalf("batch report %+v != oracle report %+v", batchReport, oracleReport)
	}
	if batchReport.Audited != 4 || batchReport.Quarantined != 3 {
		t.Fatalf("report = %+v, want 4 audited / 3 quarantined", batchReport)
	}
	if fmt.Sprint(batchUsers) != fmt.Sprint(oracleUsers) {
		t.Fatalf("surviving datasets diverge: batch %v, oracle %v", batchUsers, oracleUsers)
	}
	if len(batchUsers) != 1 {
		t.Fatalf("surviving fragments = %v, want exactly dave's", batchUsers)
	}
	if batchStats.QuarantinedTraces != oracleStats.QuarantinedTraces ||
		batchStats.RecordsQuarantined != oracleStats.RecordsQuarantined {
		t.Fatalf("quarantine stats diverge: batch %+v, oracle %+v", batchStats, oracleStats)
	}
}

// appendFailStore works normally until failing is set, then rejects
// every Append. Load and Compact always succeed so the server can
// start and checkpoint.
type appendFailStore struct {
	failing atomic.Bool
	fails   atomic.Int32
}

func (f *appendFailStore) Name() string { return "failing" }
func (f *appendFailStore) Append(...store.Record) error {
	if !f.failing.Load() {
		return nil
	}
	f.fails.Add(1)
	return errors.New("device write-protected")
}
func (f *appendFailStore) Load() ([]byte, []store.Record, error) { return nil, nil, nil }
func (f *appendFailStore) Mark() (store.Pos, error)              { return 0, nil }
func (f *appendFailStore) Compact([]byte, store.Pos) error       { return nil }
func (f *appendFailStore) NeedsCompaction() bool                 { return false }
func (f *appendFailStore) Close() error                          { return nil }

// TestAppendFailureSurfacesInStats pins the swallowed-error bugfix:
// the quarantine WAL record stays best-effort by contract — the
// quarantine completes in memory even when the store rejects the
// record — but the failure is no longer silent: /v2/stats persistence
// health reports the count and the last error.
func TestAppendFailureSurfacesInStats(t *testing.T) {
	fst := &appendFailStore{}
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		return nil, ownerAuditor{prefix: "alice"}, nil
	})
	srv, err := New(&markedProtector{mark: "gen0"},
		WithStore(fst), WithCheckpointInterval(-1), WithRetrainer(rt, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	mustUpload(t, c, trace.New("alice", sampleRecords(6)))
	fst.failing.Store(true) // the disk goes bad after the upload acked
	report, err := srv.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if report.Quarantined != 1 {
		t.Fatalf("quarantined %d with a failing store, want 1 (append is best-effort)", report.Quarantined)
	}
	d, err := c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 0 {
		t.Fatalf("condemned fragment still published: %v", d.Users())
	}

	p := srv.statsPayload().Persistence
	if p == nil {
		t.Fatal("no persistence section with a store configured")
	}
	if want := int64(fst.fails.Load()); p.AppendFailures != want || want < 1 {
		t.Fatalf("append failures = %d, want %d (the quarantine record)", p.AppendFailures, want)
	}
	if !strings.Contains(p.LastAppendError, "write-protected") {
		t.Fatalf("last append error = %q", p.LastAppendError)
	}
	body := getBody(t, hs.URL+"/v2/stats")
	if !strings.Contains(body, `"append_failures"`) || !strings.Contains(body, `"last_append_error"`) {
		t.Fatalf("stats JSON missing append health: %s", body)
	}
}
