package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mood/internal/trace"
)

func TestSaveLoadStateRoundTrip(t *testing.T) {
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)
	mustUpload(t, c, trace.New("alice", sampleRecords(10)))
	mustUpload(t, c, trace.New("reject-bob", sampleRecords(4)))

	path := filepath.Join(t.TempDir(), "state.json")
	if err := srv.SaveState(path); err != nil {
		t.Fatal(err)
	}

	// A fresh server restored from the snapshot serves the same data.
	restored, err := New(&fakeProtector{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(path); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), srv.Stats(); got != want {
		t.Fatalf("restored stats %+v != original %+v", got, want)
	}
	hs2 := httptest.NewServer(restored.Handler())
	defer hs2.Close()
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

func TestLoadStateErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.LoadState("/nonexistent/state.json"); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{nope"); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadState(bad); err == nil {
		t.Fatal("garbage state must error")
	}
}

func TestSaveStateBadDir(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.SaveState("/nonexistent-dir/state.json"); err == nil {
		t.Fatal("unwritable path must error")
	}
}

func TestWithAuth(t *testing.T) {
	srv, err := New(&fakeProtector{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(WithAuth("sesame", srv.Handler()))
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

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
