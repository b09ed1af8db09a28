package service

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"mood/internal/mathx"
	"mood/internal/store"
	"mood/internal/trace"
)

// noRetrain is a retrainer that keeps the engine: a node configured
// with it keeps every user's history and changes nothing else.
var noRetrain = RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) { return nil, nil, nil })

// historyOf returns user's history as its shard holds it — the
// segment list, cloned under the shard lock — for tests that look at
// its shape.
func historyOf(srv *Server, user string) segments {
	sh := srv.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if h := sh.history[user]; h != nil {
		return slices.Clone(h.segs)
	}
	return nil
}

// TestHistoryAtCapCostsTheChunk: a user whose history is at its cap
// commits three rounds of 200 more uploads. The history keeps each
// upload's own array and drops or re-slices head segments, so a
// commit's fold allocates nothing for it; appending to one array and
// copying its last cap records out cost 1,176 KiB an upload in this
// test.
func TestHistoryAtCapCostsTheChunk(t *testing.T) {
	const histCap, chunk, uploads, rounds = 50_000, 120, 200, 3
	srv, err := New(&fakeProtector{}, WithRetrainer(noRetrain, 0), WithHistoryCap(histCap))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // no store
	var all []trace.Record
	commit := func(i int) walUploadCommit {
		recs := sampleRecords(chunk)
		for r := range recs {
			recs[r].TS += int64(i) * 86400
		}
		all = append(all, recs...)
		return walUploadCommit{User: "alice", RecordsIn: chunk, Accepted: chunk, History: recs}
	}
	for i := 0; i <= histCap/chunk; i++ {
		c := commit(i)
		srv.foldCommit(durable{}, &c)
	}
	commits := make([]walUploadCommit, rounds*uploads)
	for i := range commits {
		commits[i] = commit(histCap/chunk + 1 + i)
	}

	perUpload := allocPerOp(t, fmt.Sprintf("upload of %d records at a cap of %d", chunk, histCap), rounds, uploads, nil, func(round int) {
		for i := round * uploads; i < (round+1)*uploads; i++ {
			srv.foldCommit(durable{}, &commits[i])
		}
	})
	if perUpload >= 1<<10 {
		t.Fatalf("an upload at the cap allocated %.0f bytes: the history copies records", perUpload)
	}
	if got := historyOf(srv, "alice").join(); !slices.Equal(got, all[len(all)-histCap:]) {
		t.Fatalf("the history holds %d records, not the last %d uploaded", len(got), histCap)
	}
}

// TestHistoryMatchesModel checks the history against a model — every
// accepted record in upload order, trimmed to the last cap — over
// seeded random interleavings of in-order and out-of-order uploads,
// retrain passes (the snapshot and the join it keeps) alone or beside
// an upload, checkpoints beside an upload or a pass, and kills followed
// by Recover, on caps from 1 to 300. After every step historySnapshot is
// trace.New(user, model) record for record, and the snapshot a
// checkpoint would write has the bytes of the same state with every
// history in one array.
func TestHistoryMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runHistoryModel(t, seed)
		})
	}
}

func runHistoryModel(t *testing.T, seed uint64) {
	rng := mathx.NewRand(seed)
	histCap := 1 + rng.Intn(300)
	users := []string{"alice", "bob", "carol"}
	model := map[string][]trace.Record{}
	last := map[string]int64{}

	disk := store.NewMemFS()
	ffs := store.NewFaultFS(disk)
	srv, _ := newWALServer(t, ffs, &fakeProtector{}, WithRetrainer(noRetrain, 0), WithHistoryCap(histCap))

	// upload commits a burst of one to five chunks, so that a history
	// holds several segments when it is checked and a trim can span
	// them.
	upload := func() {
		for k := 1 + rng.Intn(5); k > 0; k-- {
			user := users[rng.Intn(len(users))]
			n := 1 + rng.Intn(60)
			from := last[user]
			if rng.Intn(4) == 0 {
				from = rng.Int63n(max(last[user], 1)) // before what the user sent last
			}
			recs := make([]trace.Record, n)
			for i := range recs {
				recs[i] = trace.Record{Lat: 45 + rng.Float64(), Lon: 4 + rng.Float64(), TS: from + int64(i+1)*60}
			}
			last[user] = max(last[user], recs[n-1].TS)
			if _, err := srv.protectAndCommit(trace.Trace{User: user, Records: recs}); err != nil {
				t.Error(err)
				return
			}
			h := append(model[user], recs...)
			model[user] = h[max(0, len(h)-histCap):]
		}
	}
	retrain := func() {
		if _, err := srv.Retrain(); err != nil {
			t.Error(err)
		}
	}
	checkpoint := func() {
		if err := srv.Checkpoint(); err != nil {
			t.Error(err)
		}
	}
	beside := func(bg, fg func()) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			bg()
		}()
		fg()
		wg.Wait()
	}

	for step := 0; step < 150 && !t.Failed(); step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 11:
			op = "upload"
			upload()
		case r < 13:
			op = "retrain"
			retrain()
		case r < 15:
			op = "retrain beside an upload"
			beside(retrain, upload)
		case r < 17:
			op = "checkpoint beside an upload"
			beside(checkpoint, upload)
		case r < 18:
			op = "checkpoint beside a retrain"
			beside(checkpoint, retrain)
		default:
			op = "kill and recover"
			ffs.Kill()
			ffs = store.NewFaultFS(disk)
			srv, _ = newWALServer(t, ffs, &fakeProtector{}, WithRetrainer(noRetrain, 0), WithHistoryCap(histCap))
		}
		checkHistoryModel(t, srv, model, fmt.Sprintf("step %d (%s, cap %d)", step, op, histCap))
	}
}

// checkHistoryModel fails t unless srv's history is model's: first as
// a checkpoint captures it, segments and all, then as historySnapshot
// hands it over (which joins the segments).
func checkHistoryModel(t *testing.T, srv *Server, model map[string][]trace.Record, at string) {
	t.Helper()
	st := srv.captureState()
	enc := encodeSnapshot(&st)
	if len(st.History) != len(model) {
		t.Fatalf("%s: history of %d users, model has %d", at, len(st.History), len(model))
	}
	for u, segs := range st.History {
		if !slices.Equal(segs.join(), model[u]) {
			t.Fatalf("%s: %s's captured history is not the model's", at, u)
		}
		st.History[u] = segments{segs.join()}
	}
	if !bytes.Equal(encodeSnapshot(&st), enc) {
		t.Fatalf("%s: the segmented history encodes to other bytes than the joined one", at)
	}
	for _, h := range srv.historySnapshot() {
		if want := trace.New(h.User, model[h.User]); !slices.Equal(h.Records, want.Records) {
			t.Fatalf("%s: %s's history of %d records is not the model's %d", at, h.User, h.Len(), want.Len())
		}
	}
}
