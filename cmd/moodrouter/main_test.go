package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mood/internal/loadgen"
	"mood/internal/service"
	"mood/internal/trace"
)

func TestRunFlagErrors(t *testing.T) {
	tests := [][]string{
		{},                                 // no -node
		{"-node", "n00"},                   // not id=url
		{"-node", "=http://x"},             // empty id
		{"-node", "n00="},                  // empty url
		{"-node", "n00=http://x", "-addr"}, // broken flag
		{"-node", "n00=http://x", "-node", "n00=http://y"}, // duplicate ID (ring rejects)
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestNodeFlagRoundTrip(t *testing.T) {
	var nf nodeFlags
	if err := nf.Set("n00=http://a:1/"); err != nil {
		t.Fatal(err)
	}
	if err := nf.Set("n01=http://b:2"); err != nil {
		t.Fatal(err)
	}
	if got, want := nf.String(), "n00=http://a:1,n01=http://b:2"; got != want {
		t.Fatalf("String() = %q, want %q (trailing slash must be trimmed)", got, want)
	}
}

// TestRouterRoutesToRealNodes boots two real moodserver backends, runs
// the router binary's serve loop against them, uploads through the
// router and checks the scattered stats see both the upload and the
// ring identity.
func TestRouterRoutesToRealNodes(t *testing.T) {
	backends := make([]*httptest.Server, 2)
	for i := range backends {
		srv, err := service.New(loadgen.EchoProtector{}, service.WithNodeID([]string{"n00", "n01"}[i]))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		backends[i] = httptest.NewServer(srv.Handler())
		t.Cleanup(backends[i].Close)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- runCtx(ctx, []string{
			"-addr", addr,
			"-node", "n00=" + backends[0].URL,
			"-node", "n01=" + backends[1].URL,
			"-probe-interval", "25ms",
		})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("router exited with: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("router never shut down")
		}
	})

	base := "http://" + addr
	waitHealthy(t, base)

	c := service.NewClient(base)
	results, err := c.UploadBatch([]service.BatchChunk{
		{User: "alice", Records: []trace.Record{{Lat: 1, Lon: 2, TS: 1700000000}}, Key: "k-1"},
	})
	if err != nil {
		t.Fatalf("upload through the router: %v", err)
	}
	if len(results) != 1 || results[0].Status != http.StatusOK {
		t.Fatalf("upload results = %+v", results)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Uploads != 1 || st.Users != 1 {
		t.Fatalf("scattered stats = %+v, want the one upload", st)
	}

	// The aggregate carries the per-node cluster section.
	resp, err := http.Get(base + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cluster struct {
			RingEpoch int64 `json:"ring_epoch"`
			Nodes     []struct {
				ID string `json:"id"`
			} `json:"nodes"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cluster.Nodes) != 2 || doc.Cluster.RingEpoch < 1 {
		t.Fatalf("cluster section = %s", body)
	}
	ids := []string{doc.Cluster.Nodes[0].ID, doc.Cluster.Nodes[1].ID}
	if strings.Join(ids, ",") != "n00,n01" {
		t.Fatalf("cluster node IDs = %v", ids)
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("router never became healthy")
}
