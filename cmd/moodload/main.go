// Command moodload runs deterministic workload scenarios against the
// MooD crowd-sensing middleware and reports whether the service tier's
// accounting invariants held. It is the operational face of
// internal/loadgen: the soak harness every scale change is validated
// against.
//
// Usage:
//
//	moodload -scenario steady|burst|drift-retrain|restart|crash|cluster
//	         [-seed 7] [-users 8] [-rounds 3] [-workers 0]
//	         [-engine mood|echo] [-target URL] [-token T] [-out report.json]
//
// With no -target, moodload self-hosts the server in-process: the
// workload's background half trains the real MooD engine (-engine mood,
// the default) or a pass-through echo engine (-engine echo, for
// high-rate soaks of the service tier alone). The drift-retrain
// scenario wires the same retrainer cmd/moodserver uses:
// mood.Pipeline.RetrainWith over the background half. The server
// runs over a write-ahead log: the restart scenario drains it (final
// checkpoint included) and recovers it from the log in the middle of a
// round; the crash scenario kills it mid-round without drain or
// checkpoint — the reboot must replay every acknowledged upload from
// the log; and the cluster scenario self-hosts three WAL nodes behind
// the rendezvous router, kills one mid-round, holds it down until the
// health checker evicts it from the ring, and reboots it under traffic
// — the report gains a cluster-misroute violation if any request ever
// executed on the wrong node (all of these are self-host only).
//
// The report is printed to stdout as JSON and is deterministic for a
// fixed seed: two runs of the same scenario produce byte-identical
// reports, so soak results diff cleanly across commits. Progress and
// transient-retry noise go to stderr. Exit status is 0 only when every
// invariant checker passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"mood"
	"mood/internal/loadgen"
	"mood/internal/service"
	"mood/internal/store"
	"mood/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "moodload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("moodload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "steady", "workload scenario: "+fmt.Sprint(loadgen.ScenarioNames()))
	seed := fs.Uint64("seed", 7, "workload seed (fixed seed = reproducible report)")
	users := fs.Int("users", 8, "population size")
	rounds := fs.Int("rounds", 3, "publication rounds")
	workers := fs.Int("workers", 0, "client concurrency (0 = scenario default)")
	engine := fs.String("engine", "mood", "self-hosted protection engine: mood (real pipeline) or echo (pass-through)")
	target := fs.String("target", "", "drive an external server at this base URL instead of self-hosting")
	token := fs.String("token", "", "bearer token for the target server")
	out := fs.String("out", "", "also write the report JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := loadgen.Scenario(*scenario, *seed, *users, *rounds)
	if err != nil {
		return err
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	cfg.AuthToken = *token

	w, err := loadgen.Build(cfg)
	if err != nil {
		return err
	}

	baseURL := *target
	var misroutes func() int64
	if baseURL == "" && *scenario == "cluster" {
		ch, err := newSelfCluster(cfg, w, *engine)
		if err != nil {
			return err
		}
		defer ch.close()
		cfg.Restart = ch.host.FailoverOne
		misroutes = ch.host.Misroutes
		baseURL = ch.host.URL()
		fmt.Fprintf(stderr, "moodload: self-hosting a 3-node %s-engine cluster behind %s (%d background users)\n",
			*engine, baseURL, w.Background.NumUsers())
	} else if baseURL == "" {
		h, err := newSelfHost(cfg, w, *engine)
		if err != nil {
			return err
		}
		defer h.close()
		cfg.Restart = h.reboot
		baseURL = h.url
		fmt.Fprintf(stderr, "moodload: self-hosting %s engine on %s (%d background users)\n",
			*engine, baseURL, w.Background.NumUsers())
	} else if cfg.RestartAfterRound > 0 {
		return fmt.Errorf("the %s scenario restarts the server and needs self-hosting; drop -target", *scenario)
	}

	rep, err := loadgen.NewDriver(cfg, baseURL, stderr).RunWorkload(w)
	if err != nil {
		return err
	}
	if misroutes != nil {
		// The misroute tripwire is cluster-side state the driver cannot
		// see; a non-zero count means a request executed on the wrong
		// node and is a violation like any other.
		if n := misroutes(); n != 0 {
			rep.OK = false
			rep.Violations = append(rep.Violations, loadgen.Violation{
				Invariant: "cluster-misroute",
				Detail:    fmt.Sprintf("misroute tripwire fired %d time(s)", n),
			})
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := stdout.Write(data); err != nil {
		return err
	}
	if *out != "" {
		//mood:allow persistio -- the -out report is a CLI artifact, not server state
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if !rep.OK {
		return fmt.Errorf("%d invariant violation(s); see report", len(rep.Violations))
	}
	fmt.Fprintln(stderr, "moodload: all invariants green")
	return nil
}

// ---------------------------------------------------------------------------
// Self-hosted server with restart support.

// selfHost is a loadgen.Host (the shared teardown → reboot → swap
// machinery over a write-ahead log) bound to a real listener and a temp
// state directory. reboot is the scenario's mid-round callback: Restart
// (drain + final checkpoint + recover) for the restart scenario, Crash
// (hard kill + WAL replay) for the crash scenario.
type selfHost struct {
	url      string
	hs       *http.Server
	host     *loadgen.Host
	stateDir string
	reboot   func() error
}

func newSelfHost(cfg loadgen.Config, w loadgen.Workload, engine string) (*selfHost, error) {
	protector, retrainer, err := buildEngine(engine, cfg.Seed, w.Background.Traces)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "moodload-*")
	if err != nil {
		return nil, err
	}
	host, err := loadgen.NewWALHost(func(st store.Store) (*service.Server, error) {
		return service.New(protector,
			service.WithRetrainer(retrainer, 0),
			service.WithAuthToken(cfg.AuthToken),
			service.WithStore(st),
		)
	}, filepath.Join(dir, "wal"), nil)
	if err != nil {
		os.RemoveAll(dir) //mood:allow persistio -- bench scratch dir teardown: the self-hosted server's state dir is ephemeral, not server state
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		host.Close()
		os.RemoveAll(dir) //mood:allow persistio -- bench scratch dir teardown: the self-hosted server's state dir is ephemeral, not server state
		return nil, err
	}
	h := &selfHost{
		url:      "http://" + ln.Addr().String(),
		hs:       &http.Server{Handler: host},
		host:     host,
		stateDir: dir,
		reboot:   host.Restart,
	}
	if cfg.Scenario == "crash" {
		h.reboot = host.Crash
	}
	go h.hs.Serve(ln) //nolint:errcheck // closed via h.close
	return h, nil
}

// selfCluster self-hosts the cluster scenario: three WAL nodes behind
// the rendezvous router, health-checked membership, FailoverOne as the
// mid-round callback.
type selfCluster struct {
	host *loadgen.ClusterHost
	dir  string
}

func newSelfCluster(cfg loadgen.Config, w loadgen.Workload, engine string) (*selfCluster, error) {
	protector, retrainer, err := buildEngine(engine, cfg.Seed, w.Background.Traces)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "moodload-cluster-*")
	if err != nil {
		return nil, err
	}
	ch, err := loadgen.NewClusterHost(loadgen.ClusterConfig{
		Dir:   dir,
		Token: cfg.AuthToken,
		New: func(nodeID string, st store.Store) (*service.Server, error) {
			return service.New(protector,
				service.WithNodeID(nodeID),
				service.WithRetrainer(retrainer, 0),
				service.WithAuthToken(cfg.AuthToken),
				service.WithStore(st),
			)
		},
	})
	if err != nil {
		os.RemoveAll(dir) //mood:allow persistio -- bench scratch dir teardown: the per-node WAL dirs are ephemeral, not server state
		return nil, err
	}
	return &selfCluster{host: ch, dir: dir}, nil
}

func (c *selfCluster) close() {
	c.host.Close()      //nolint:errcheck // teardown on exit
	os.RemoveAll(c.dir) //mood:allow persistio -- bench scratch dir teardown: the per-node WAL dirs are ephemeral, not server state
}

func (h *selfHost) close() {
	h.hs.Close()
	h.host.Close()
	os.RemoveAll(h.stateDir) //mood:allow persistio -- bench scratch dir teardown: the self-hosted server's state dir is ephemeral, not server state
}

// buildEngine assembles the self-hosted protection engine.
func buildEngine(kind string, seed uint64, background []trace.Trace) (service.Protector, service.Retrainer, error) {
	switch kind {
	case "mood":
		pipeline, err := mood.NewPipeline(background, mood.WithSeed(seed))
		if err != nil {
			return nil, nil, fmt.Errorf("training the engine: %w", err)
		}
		return pipeline, service.RetrainerFunc(func(history []trace.Trace) (service.Protector, service.Auditor, error) {
			p, err := pipeline.RetrainWith(history)
			if err != nil {
				return nil, nil, err
			}
			return p, p, nil
		}), nil
	case "echo":
		return loadgen.EchoProtector{Seed: seed}, echoRetrainer{}, nil
	default:
		return nil, nil, fmt.Errorf("unknown engine %q (want mood or echo)", kind)
	}
}

// echoRetrainer keeps the engine and skips the audit — the barrier
// machinery still runs end to end.
type echoRetrainer struct{}

func (echoRetrainer) Retrain([]trace.Trace) (service.Protector, service.Auditor, error) {
	return nil, nil, nil
}
