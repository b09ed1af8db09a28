package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mood/internal/attack"
	"mood/internal/clock"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// TestPropertyStatsInvariants is the property-based soak of the
// accounting: for seeded random interleavings of sync uploads, async
// uploads, keyed duplicates, invalid requests, engine failures,
// retrain+quarantine passes and virtual-time jumps (rate-limit refill),
// on a dedupe window of 8 entries, the /v2/stats counters must always
//
//   - satisfy records_in == records_published + records_rejected,
//   - match a client-side model built from the observed responses
//     (exactly-once semantics: replays never double-count),
//   - aggregate exactly from the per-user views (pieces − quarantined
//     pieces == published traces),
//   - never go negative.
//
// Every operation is drawn from a per-seed rng, so a failure reproduces
// from its seed alone.
func TestPropertyStatsInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runStatsInvariantProperty(t, seed)
		})
	}
}

// condemnAuditor condemns (user, pass) pairs pseudo-randomly but
// deterministically, so successive retrains quarantine different,
// reproducible subsets.
type condemnAuditor struct {
	seed uint64
	pass int
}

func (a condemnAuditor) ReIdentifiesBatch(ts []trace.Trace, users []string) []attack.ReIdent {
	out := make([]attack.ReIdent, len(users))
	for i, user := range users {
		if mathx.DeriveSeed(a.seed, "condemn", user, fmt.Sprint(a.pass))%3 == 0 {
			out[i] = attack.ReIdent{Hit: true, Attack: "condemn"}
		}
	}
	return out
}

func runStatsInvariantProperty(t *testing.T, seed uint64) {
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	passes := 0
	rt := RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		passes++
		return nil, condemnAuditor{seed: seed, pass: passes}, nil
	})
	srv, err := New(&fakeProtector{},
		WithClock(clk),
		WithRetrainer(rt, 0),
		WithRequestTimeout(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv.idem.entries.cap = 8
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	users := []string{"u0", "u1", "u2", "u3", "u4", "reject-r0", "reject-r1", "boom-b0"}
	rng := mathx.DeriveRand(seed, "prop")

	// The model: every counter the server must report, accumulated from
	// the responses the client actually saw.
	var exp struct {
		uploads, recordsIn, published, rejected int
	}
	seen := map[string]bool{}

	postUpload := func(user, key string, n int, async bool) {
		t.Helper()
		c := keyed(user, key, n)
		c.Async = async
		res := postChunk(t, hs.URL, c)

		switch res.Status {
		case http.StatusOK:
			if res.Replay {
				return // served from the window: must not change state
			}
			resp := *res.Result
			exp.uploads++
			exp.recordsIn += n
			exp.published += resp.Accepted
			exp.rejected += resp.Rejected
			seen[user] = true
		case http.StatusAccepted:
			if res.Replay {
				// Replayed job handle; the original already counted.
				return
			}
			// Join the job through the handle the 202 carried, then read
			// the outcome it committed. (Not through the idempotency entry:
			// a failed job releases its key by design, so re-begin()ing the
			// key races the worker and would mint a fresh entry.)
			job := *res.Job
			deadline := time.Now().Add(5 * time.Second)
			for job.State != JobDone && job.State != JobFailed {
				if time.Now().After(deadline) {
					t.Fatalf("async upload (%s,%s) never completed: %+v", user, key, job)
				}
				time.Sleep(50 * time.Microsecond)
				var ok bool
				if job, ok = srv.jobs.get(job.ID); !ok {
					t.Fatalf("async upload (%s,%s) lost its job", user, key)
				}
			}
			if job.State == JobFailed {
				return // failed job: nothing committed
			}
			resp := *job.Result
			exp.uploads++
			exp.recordsIn += n
			exp.published += resp.Accepted
			exp.rejected += resp.Rejected
			seen[user] = true
		case http.StatusInternalServerError, http.StatusBadRequest,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests:
			// No commit. 500 = engine failure (boom-*), 4xx = client bugs.
		default:
			t.Fatalf("unexpected result: %+v", res)
		}
	}

	check := func(step int) {
		t.Helper()
		st := srv.Stats()
		if st.Uploads < 0 || st.Users < 0 || st.RecordsIn < 0 || st.RecordsPublished < 0 ||
			st.RecordsRejected < 0 || st.RecordsQuarantined < 0 || st.PublishedTraces < 0 ||
			st.QuarantinedTraces < 0 || st.Retrains < 0 {
			t.Fatalf("step %d: negative counter: %+v", step, st)
		}
		if st.RecordsIn != st.RecordsPublished+st.RecordsRejected {
			t.Fatalf("step %d: conservation broken: %+v", step, st)
		}
		if st.Uploads != exp.uploads || st.RecordsIn != exp.recordsIn ||
			st.RecordsPublished != exp.published || st.RecordsRejected != exp.rejected {
			t.Fatalf("step %d: stats %+v disagree with the response model %+v", step, st, exp)
		}
		if st.Users != len(seen) {
			t.Fatalf("step %d: users %d, model %d", step, st.Users, len(seen))
		}
		if st.Retrains != passes {
			t.Fatalf("step %d: retrains %d, model %d", step, st.Retrains, passes)
		}
		// Per-user aggregation and the quarantine identity.
		var sum ServerStats
		pieces, piecesQuarantined := 0, 0
		for _, u := range serverUsers(srv) {
			us, err := userStatsOf(srv, u)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if us.RecordsIn != us.RecordsPublished+us.RecordsRejected {
				t.Fatalf("step %d: user %s conservation broken: %+v", step, u, us)
			}
			sum.Uploads += us.Uploads
			sum.RecordsIn += us.RecordsIn
			sum.RecordsPublished += us.RecordsPublished
			sum.RecordsRejected += us.RecordsRejected
			sum.RecordsQuarantined += us.RecordsQuarantined
			pieces += us.Pieces
			piecesQuarantined += us.PiecesQuarantined
		}
		if sum.Uploads != st.Uploads || sum.RecordsIn != st.RecordsIn ||
			sum.RecordsPublished != st.RecordsPublished || sum.RecordsRejected != st.RecordsRejected ||
			sum.RecordsQuarantined != st.RecordsQuarantined {
			t.Fatalf("step %d: per-user sums %+v disagree with %+v", step, sum, st)
		}
		if piecesQuarantined != st.QuarantinedTraces {
			t.Fatalf("step %d: quarantined pieces %d != quarantined traces %d", step, piecesQuarantined, st.QuarantinedTraces)
		}
		if pieces-piecesQuarantined != st.PublishedTraces {
			t.Fatalf("step %d: pieces %d - quarantined %d != published %d", step, pieces, piecesQuarantined, st.PublishedTraces)
		}
	}

	const steps = 250
	for i := 0; i < steps; i++ {
		user := users[rng.Intn(len(users))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // plain sync upload
			postUpload(user, "", 1+rng.Intn(20), false)
		case 4, 5: // keyed sync upload (duplicates arise from the small key space)
			postUpload(user, fmt.Sprintf("k%d", rng.Intn(6)), 1+rng.Intn(20), false)
		case 6: // keyed async upload
			postUpload(user, fmt.Sprintf("a%d", rng.Intn(6)), 1+rng.Intn(20), true)
		case 7: // invalid request: must change nothing
			if _, results := postNDJSON(t, hs.URL, "{nope\n", nil); len(results) != 1 || results[0].Status != http.StatusBadRequest {
				t.Fatalf("step %d: garbage answered %+v", i, results)
			}
		case 8: // retrain + quarantine pass
			if _, err := srv.Retrain(); err != nil {
				t.Fatalf("step %d: retrain: %v", i, err)
			}
		case 9: // time passes: rate-limit refill horizons
			clk.Advance(time.Duration(1+rng.Intn(90)) * time.Minute)
		}
		check(i)
	}
	if passes == 0 || srv.Stats().QuarantinedTraces == 0 {
		t.Fatalf("property run too tame: %d passes, stats %+v", passes, srv.Stats())
	}
}
