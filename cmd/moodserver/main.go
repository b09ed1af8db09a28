// Command moodserver runs the crowd-sensing middleware: participants
// stream daily mobility chunks to POST /v2/traces (NDJSON batches; a
// single chunk is a batch of one) and only protected, pseudonymised
// fragments are admitted to the cursor-paginated GET /v2/dataset. The server is self-describing:
// GET /v2/openapi.json serves an OpenAPI document generated from the
// same route table that drives the router.
//
// Usage:
//
//	moodserver -background bg.csv [-addr :8080] [-seed 42] [-greedy]
//	           [-token T] [-wal-dir DIR] [-fsync always|group]
//	           [-rate 0] [-burst 10] [-queue 64] [-workers 0]
//	           [-request-timeout 2m]
//	           [-retrain-interval 0] [-history-cap 50000] [-node-id n00]
//
// The background CSV plays the attacker-side knowledge H: it trains the
// re-identification attacks the middleware defends against and feeds
// HMC's pool of imitation targets.
//
// Dynamic protection (paper §6): the server accumulates every accepted
// upload's raw records as the history a real adversary would have
// collected. -retrain-interval > 0 periodically retrains the attack set
// and HMC background through mood.Pipeline.RetrainWith (the background
// CSV followed by that history), hot-swaps the engine without upload
// downtime, and re-audits the published dataset, quarantining fragments
// the refreshed attacks re-identify. The same pass can be triggered on
// demand with POST /v2/admin/retrain (always available, behind -token
// when set). A reboot that restores a history some pass already
// trained on runs one pass before serving, so the node comes back with
// the adversary it had, not the one it booted with.
//
// Durability: -wal-dir keeps the state in a segmented append-only
// write-ahead log where, under -fsync=always, every upload is on stable
// storage before it is acknowledged — a crash at ANY point (power loss,
// kill -9) loses zero acked uploads, and reboot replays the latest
// snapshot plus the log after it. -fsync=group trades one fsync per
// upload for batched group commit. Snapshots are checkpointed
// periodically (retry + backoff, health on /v2/stats) and on shutdown;
// `moodctl snapshot` prints one as JSON. A snapshot that cannot be read
// stops the boot and is left as it is. Without -wal-dir the server
// keeps its state in memory only.
//
// Clustering: behind cmd/moodrouter each node runs with a stable
// -node-id and its own WAL. The router stamps every forwarded request
// with the computed ring owner; a node refuses requests stamped for
// somebody else with a retryable 503 (problem code "routing") instead
// of executing them — ownership mistakes fail loudly, never as a
// silent misroute across two nodes' state.
//
// The server also shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests finish, the upload queue drains, and with -wal-dir a final
// checkpoint compacts the log, so the next boot starts from a snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mood"
	"mood/internal/clock"
	"mood/internal/service"
	"mood/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "moodserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	return runCtx(context.Background(), args)
}

// runCtx serves until the context is cancelled or a signal arrives,
// then shuts down gracefully. Tests drive shutdown through the context.
func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("moodserver", flag.ContinueOnError)
	background := fs.String("background", "", "CSV file with the attacker-side background knowledge (required)")
	addr := fs.String("addr", ":8080", "listen address")
	seed := fs.Uint64("seed", 42, "random seed")
	greedy := fs.Bool("greedy", false, "use the heuristic composition search")
	delta := fs.Duration("delta", 0, "fine-grained stop threshold (default 4h)")
	token := fs.String("token", "", "require this bearer token on every API call")
	walDir := fs.String("wal-dir", "", "write-ahead log directory: recovered at startup, checkpointed periodically and on shutdown (unset = in-memory state)")
	fsync := fs.String("fsync", "always", `WAL sync policy: "always" (fsync before every ack) or "group" (batched group commit)`)
	rate := fs.Float64("rate", 0, "per-user rate limit in requests/second (0 = unlimited)")
	burst := fs.Int("burst", 10, "per-user rate-limit burst")
	queue := fs.Int("queue", 64, "upload queue depth (a full queue pauses the batch streams feeding it)")
	workers := fs.Int("workers", 0, "upload worker-pool size (0 = GOMAXPROCS)")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request timeout (negative disables)")
	retrainInterval := fs.Duration("retrain-interval", 0, "periodic attack retraining + re-audit (0 = only on POST /v2/admin/retrain)")
	historyCap := fs.Int("history-cap", 0, "per-user raw history the retrainer learns from, in records (0 = default 50000, negative disables)")
	nodeID := fs.String("node-id", "", "stable cluster node identity (required behind moodrouter; enables the misroute tripwire and the stats node section)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *background == "" {
		return fmt.Errorf("-background is required")
	}
	st, err := buildStore(*walDir, *fsync)
	if err != nil {
		return err
	}

	bg, err := mood.LoadCSVFile(*background, "background")
	if err != nil {
		return err
	}
	opts := []mood.Option{mood.WithSeed(*seed)}
	if *greedy {
		opts = append(opts, mood.WithGreedySearch())
	}
	if *delta > 0 {
		opts = append(opts, mood.WithDelta(*delta))
	}
	pipeline, err := mood.NewPipeline(bg.Traces, opts...)
	if err != nil {
		return err
	}
	// One clock feeds every time-dependent layer (rate limiter,
	// retrain ticker, snapshot loop), so an embedder
	// swapping in a clock.Manual steps the whole server coherently.
	clk := clock.System()
	svcOpts := []service.Option{
		service.WithClock(clk),
		service.WithRateLimit(*rate, *burst),
		service.WithQueueDepth(*queue),
		service.WithWorkers(*workers),
		service.WithRequestTimeout(*reqTimeout),
		service.WithAuthToken(*token),
		service.WithRetrainer(service.RetrainerFunc(func(history []mood.Trace) (service.Protector, service.Auditor, error) {
			p, err := pipeline.RetrainWith(history)
			if err != nil {
				return nil, nil, err
			}
			return p, p, nil
		}), *retrainInterval),
		service.WithHistoryCap(*historyCap),
	}
	if *nodeID != "" {
		svcOpts = append(svcOpts, service.WithNodeID(*nodeID))
	}
	if st != nil {
		svcOpts = append(svcOpts, service.WithStore(st))
	}
	srv, err := service.New(pipeline, svcOpts...)
	if err != nil {
		return err
	}
	defer srv.Close()

	if st != nil {
		// Replay the snapshot plus every record appended after it, and
		// start the background checkpoint loop (periodic compaction with
		// retry + backoff; health on /v2/stats).
		if err := srv.Recover(); err != nil {
			return err
		}
		log.Printf("moodserver: recovered state from %s store", st.Name())
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("moodserver: background %d users, attacks %v, listening on %s",
		bg.NumUsers(), pipeline.Attacks(), *addr)
	httpServer := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow or stalled clients must not pin connections: bound every
		// phase of the exchange, not just the header read.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout(*reqTimeout),
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("moodserver: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := httpServer.Shutdown(shctx)
	// Close drains the upload queue, joins the checkpoint loop, flushes
	// a final checkpoint and closes the store — every accepted upload is
	// persisted before the process exits.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	if st != nil {
		log.Printf("moodserver: final checkpoint flushed to %s store", st.Name())
	}
	return shutdownErr
}

// buildStore maps the durability flags onto the store: the WAL at
// -wal-dir, or none — a purely in-memory server — without it. -fsync is
// checked either way, so a bad value never boots silently.
func buildStore(walDir, fsync string) (store.Store, error) {
	mode, err := store.ParseFsyncMode(fsync)
	if err != nil {
		return nil, fmt.Errorf("-fsync: %w", err)
	}
	if walDir == "" {
		return nil, nil
	}
	return store.NewWAL(store.WALOptions{Dir: walDir, Fsync: mode})
}

// writeTimeout leaves the handler-side timeout room to answer before
// the connection is cut. A zero flag means the service's default
// handler timeout is in effect, so the write timeout must bracket
// that, not vanish; only a negative flag truly disables the handler
// timeout.
func writeTimeout(reqTimeout time.Duration) time.Duration {
	if reqTimeout < 0 {
		return 0 // handler timeout disabled; do not cut long protections short
	}
	if reqTimeout == 0 {
		reqTimeout = service.DefaultRequestTimeout
	}
	return reqTimeout + 30*time.Second
}
