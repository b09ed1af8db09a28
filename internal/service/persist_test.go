package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"mood/internal/store"
	"mood/internal/trace"
)

// TestSaveLoadStateRoundTrip: a server closed over a WAL directory (its
// final checkpoint saves the state) and a fresh server recovered from
// it (which loads it) serve the same data.
func TestSaveLoadStateRoundTrip(t *testing.T) {
	disk := store.NewMemFS()
	srv, hs := newWALServer(t, disk, &fakeProtector{})
	c := NewClient(hs.URL)
	mustUpload(t, c, trace.New("alice", sampleRecords(10)))
	mustUpload(t, c, trace.New("reject-bob", sampleRecords(4)))
	want := srv.Stats()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	restored, hs2 := newWALServer(t, disk, &fakeProtector{})
	if got := restored.Stats(); got != want {
		t.Fatalf("restored stats %+v != original %+v", got, want)
	}
	c2 := NewClient(hs2.URL)
	d, err := c2.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != 10 {
		t.Fatalf("restored dataset has %d records", d.NumRecords())
	}
	us, err := c2.UserStats("reject-bob")
	if err != nil {
		t.Fatal(err)
	}
	if us.RecordsRejected != 4 {
		t.Fatalf("restored user stats = %+v", us)
	}

	// Pseudonym counter survives: new uploads must not collide.
	mustUpload(t, c2, trace.New("carol", sampleRecords(3)))
	d, err = c2.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tr := range d.Traces {
		if seen[tr.User] {
			t.Fatalf("pseudonym %q reused after restore", tr.User)
		}
		seen[tr.User] = true
	}
}

func TestWithAuth(t *testing.T) {
	srv, err := New(&fakeProtector{}, WithAuthToken("sesame"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// No token: rejected.
	noAuth := NewClient(hs.URL)
	if _, err := noAuth.UploadBatch([]BatchChunk{keyed("alice", "", 3)}); err == nil {
		t.Fatal("unauthenticated upload must fail")
	}
	// Wrong token: rejected.
	wrong := NewClient(hs.URL).SetAuthToken("not-sesame")
	if _, err := wrong.Stats(); err == nil {
		t.Fatal("wrong token must fail")
	}
	// Right token: accepted.
	ok := NewClient(hs.URL).SetAuthToken("sesame")
	mustUpload(t, ok, trace.New("alice", sampleRecords(3)))
	// Health stays open for probes.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind auth = %d", resp.StatusCode)
	}
}
