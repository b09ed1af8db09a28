package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// The per-chunk async flag is a JSON boolean: true runs the chunk async
// (202 + job), false, null or absent runs it sync (200), and anything
// else is a bad chunk — never a guess that silently detaches the upload
// from the result the client waits on.
func TestAsyncParamValidation(t *testing.T) {
	_, hs := newTestServer(t)
	cases := []struct {
		async string
		want  int
	}{
		{"", http.StatusOK}, {"false", http.StatusOK}, {"null", http.StatusOK},
		{"true", http.StatusAccepted},
		{`"true"`, http.StatusBadRequest}, {`"1"`, http.StatusBadRequest},
		{"1", http.StatusBadRequest}, {`"no"`, http.StatusBadRequest},
	}
	for _, c := range cases {
		line := `{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}]`
		if c.async != "" {
			line += `,"async":` + c.async
		}
		_, results := postNDJSON(t, hs.URL, line+"}\n", nil)
		if len(results) != 1 || results[0].Status != c.want {
			t.Errorf("async %s: %+v, want status %d", c.async, results, c.want)
		} else if c.want == http.StatusBadRequest && results[0].Code != CodeBadChunk {
			t.Errorf("async %s: code %q, want %q", c.async, results[0].Code, CodeBadChunk)
		}
	}
}

// The async validation also applies to idempotent replays: a keyed retry
// whose async flag is malformed is rejected before the key is consulted.
func TestAsyncParamValidationOnKeyedRetry(t *testing.T) {
	srv, hs := newTestServer(t)
	if r := postChunk(t, hs.URL, keyed("alice", "k1", 3)); r.Status != http.StatusOK {
		t.Fatalf("original upload: %+v", r)
	}
	retry := strings.TrimSuffix(batchLine(t, keyed("alice", "k1", 3)), "}\n") + `,"async":"maybe"}` + "\n"
	_, results := postNDJSON(t, hs.URL, retry, nil)
	if len(results) != 1 || results[0].Status != http.StatusBadRequest || results[0].Code != CodeBadChunk || results[0].Replay {
		t.Fatalf("retry with invalid async: %+v, want 400 %s", results, CodeBadChunk)
	}
	if st := srv.Stats(); st.Uploads != 1 {
		t.Fatalf("uploads = %d, want 1", st.Uploads)
	}
}

// Regression for the routing hole: user IDs containing '/' were accepted
// at upload but unreachable via GET /v2/users/{id} (a path segment),
// leaving accounting no client could ever read.
func TestUserIDValidation(t *testing.T) {
	_, hs := newTestServer(t)

	bad := []string{
		"a/b",
		"/leading",
		"trailing/",
		"tab\there",
		"new\nline",
		"nul\x00byte",
		"bell\x07",
		"del\x7f",
		strings.Repeat("x", maxUserIDLen+1),
	}
	for _, id := range bad {
		if res := postChunk(t, hs.URL, keyed(id, "", 3)); res.Status != http.StatusBadRequest || res.Code != CodeInvalidUser {
			t.Errorf("user %q: %+v, want 400 %s", id, res, CodeInvalidUser)
		}
	}

	// Valid IDs upload fine and stay reachable through the users route —
	// the invariant the validation exists to protect.
	good := []string{"alice", "user-42", "Ünïcôdé", "dots.and_underscores", strings.Repeat("y", maxUserIDLen)}
	c := NewClient(hs.URL)
	for _, id := range good {
		if res := postChunk(t, hs.URL, keyed(id, "", 3)); res.Status != http.StatusOK {
			t.Fatalf("user %q: %+v, want 200", id, res)
		}
		us, err := c.UserStats(id)
		if err != nil {
			t.Fatalf("user %q unreachable after upload: %v", id, err)
		}
		if us.Uploads != 1 {
			t.Fatalf("user %q stats = %+v", id, us)
		}
	}
}

func TestValidateUserIDUnit(t *testing.T) {
	if err := validateUserID(""); err == nil {
		t.Error("empty id accepted")
	}
	if err := validateUserID("ok"); err != nil {
		t.Errorf("plain id rejected: %v", err)
	}
	if err := validateUserID(fmt.Sprintf("sp%cce", ' ')); err != nil {
		t.Errorf("space rejected: %v", err)
	}
}
