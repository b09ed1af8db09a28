package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"mood/internal/clock"
	"mood/internal/mathx"
	"mood/internal/service"
	"mood/internal/trace"
)

// RequestTally counts the logical outcomes of a run. Every field is a
// pure function of the Config: transient effects (shed-and-retried
// requests, backpressure waits) are logged, not tallied, so two runs of
// the same seed produce identical tallies.
type RequestTally struct {
	// Uploads counts accepted logical uploads (each keyed upload once,
	// however many transient retries it took).
	Uploads int `json:"uploads"`
	// Records counts raw records across accepted uploads.
	Records int `json:"records"`
	// AsyncUploads is how many of Uploads went through ?async=1 + job
	// polling.
	AsyncUploads int `json:"async_uploads"`
	// Replays counts deliberate duplicate retries answered from the
	// idempotency window.
	Replays int `json:"replays"`
	// Invalid counts malformed requests correctly rejected with a 4xx.
	Invalid int `json:"invalid_rejected"`
}

// RetrainOutcome is one retrain barrier's result (duration omitted:
// it is wall-clock and would break report reproducibility).
type RetrainOutcome struct {
	AfterRound     int `json:"after_round"`
	HistoryUsers   int `json:"history_users"`
	HistoryRecords int `json:"history_records"`
	Audited        int `json:"audited"`
	Quarantined    int `json:"quarantined"`
}

// Report is the machine-readable outcome of a run. Against a correct
// server it is a deterministic function of the Config.
type Report struct {
	Scenario   string              `json:"scenario"`
	Seed       uint64              `json:"seed"`
	Users      int                 `json:"users"`
	Rounds     int                 `json:"rounds"`
	Requests   RequestTally        `json:"requests"`
	Retrains   []RetrainOutcome    `json:"retrains,omitempty"`
	Stats      service.ServerStats `json:"server_stats"`
	Violations []Violation         `json:"violations"`
	OK         bool                `json:"ok"`
}

// op is one unit of client work. Ops are fully materialised (and
// shuffled) before any request is sent, so the workload is identical
// run to run regardless of worker scheduling.
type op struct {
	kind    int
	user    string
	records []trace.Record
	key     string
	async   bool
	retry   bool // duplicate once under the same key, expect a replay
	variant int  // invalid-request variant selector
}

const (
	kindUpload = iota
	kindInvalid
	kindRestart
)

// opResult is what one executed op contributes; results are folded in
// op order after the round joins, so tallies and violation order are
// deterministic.
type opResult struct {
	tally      RequestTally
	violations []Violation
}

// Driver runs workloads against a live server.
type Driver struct {
	cfg    Config
	client *service.Client
	http   *http.Client
	log    io.Writer
	clk    clock.Clock
}

// NewDriver prepares a driver for the server at baseURL. logw receives
// human-oriented progress lines (transient retries, round summaries);
// pass io.Discard to silence it.
func NewDriver(cfg Config, baseURL string, logw io.Writer) *Driver {
	cfg.fill()
	c := service.NewClient(baseURL)
	if cfg.AuthToken != "" {
		c.SetAuthToken(cfg.AuthToken)
	}
	if logw == nil {
		logw = io.Discard
	}
	return &Driver{cfg: cfg, client: c, http: c.HTTPClient, log: logw, clk: cfg.Clock}
}

// RunWorkload replays a prebuilt workload. Exposed so harnesses that
// self-host the server (cmd/moodload, the restart e2e test) can build
// once and reuse the background half for engine training.
func (d *Driver) RunWorkload(w Workload) (Report, error) {
	cfg := d.cfg
	report := Report{Scenario: cfg.Scenario, Seed: cfg.Seed, Users: cfg.Users, Rounds: cfg.Rounds}

	baseline, err := d.client.Stats()
	if err != nil {
		return report, fmt.Errorf("loadgen: server unreachable: %w", err)
	}
	freshServer := baseline == (service.ServerStats{})
	if !freshServer {
		fmt.Fprintf(d.log, "loadgen: target has prior state (%+v); per-user and dataset invariants skipped\n", baseline)
	}

	var tally RequestTally
	var violations []Violation
	seen := map[string]bool{}
	for i, round := range w.Rounds {
		ops := d.buildRound(i+1, round.Data)
		results := d.execute(ops)
		for _, r := range results {
			tally.Uploads += r.tally.Uploads
			tally.Records += r.tally.Records
			tally.AsyncUploads += r.tally.AsyncUploads
			tally.Replays += r.tally.Replays
			tally.Invalid += r.tally.Invalid
			violations = append(violations, r.violations...)
		}
		for _, tr := range round.Data.Traces {
			seen[tr.User] = true
		}
		fmt.Fprintf(d.log, "loadgen: round %d/%d done: %d ops\n", i+1, len(w.Rounds), len(ops))

		if cfg.RetrainEvery > 0 && (i+1)%cfg.RetrainEvery == 0 {
			rr, err := d.client.Retrain()
			if err != nil {
				violations = append(violations, Violation{
					Invariant: "retrain-barrier",
					Detail:    fmt.Sprintf("retrain after round %d failed: %v", i+1, err),
				})
			} else {
				report.Retrains = append(report.Retrains, RetrainOutcome{
					AfterRound:     i + 1,
					HistoryUsers:   rr.HistoryUsers,
					HistoryRecords: rr.HistoryRecords,
					Audited:        rr.Audited,
					Quarantined:    rr.Quarantined,
				})
			}
		}
	}

	users := make([]string, 0, len(seen))
	for u := range seen {
		users = append(users, u)
	}
	// Deterministic order: checkInvariants appends per-user violations
	// in this order, and the report must be byte-identical per seed.
	sort.Strings(users)
	report.Requests = tally
	stats, err := d.client.Stats()
	if err != nil {
		return report, fmt.Errorf("loadgen: final stats: %w", err)
	}
	report.Stats = stats
	violations = append(violations, d.checkInvariants(users, tally, freshServer)...)
	if violations == nil {
		violations = []Violation{}
	}
	report.Violations = violations
	report.OK = len(violations) == 0
	return report, nil
}

// buildRound materialises one round's op list: per-user arrivals, the
// retry/invalid mix and the shuffle are all drawn from rngs derived
// from (seed, round, user), so neither map iteration order nor worker
// scheduling can change the workload.
func (d *Driver) buildRound(round int, data trace.Dataset) []op {
	cfg := d.cfg
	var ops []op
	invalids := 0
	for _, tr := range data.Traces { // dataset traces are sorted by user
		rng := mathx.DeriveRand(cfg.Seed, "loadgen", fmt.Sprint(round), tr.User)
		parts := 1
		if cfg.MaxUploadsPerUserPerRound > 1 {
			parts = 1 + rng.Intn(cfg.MaxUploadsPerUserPerRound)
		}
		for p, recs := range splitRecords(tr.Records, parts) {
			o := op{
				kind:    kindUpload,
				user:    tr.User,
				records: recs,
				key:     fmt.Sprintf("r%d-%s-%d", round, tr.User, p),
				async:   rng.Float64() < cfg.AsyncFraction,
				retry:   rng.Float64() < cfg.RetryFraction,
			}
			ops = append(ops, o)
			if rng.Float64() < cfg.InvalidFraction {
				ops = append(ops, op{kind: kindInvalid, user: tr.User, variant: rng.Intn(numInvalidVariants)})
				invalids++
			}
		}
	}
	shuffleRNG := mathx.DeriveRand(cfg.Seed, "loadgen-shuffle", fmt.Sprint(round))
	if cfg.InvalidFraction > 0 && invalids == 0 && len(ops) > 0 {
		// Small populations can dodge a low mix entirely by luck; an
		// enabled mix always contributes at least one malformed request
		// per round so the rejection path is exercised at every scale.
		ops = append(ops, op{kind: kindInvalid, user: ops[0].user, variant: shuffleRNG.Intn(numInvalidVariants)})
	}
	mathx.Shuffle(shuffleRNG, ops)
	if cfg.RestartAfterRound == round && cfg.Restart != nil {
		// Fire the restart from the middle of the op stream so it races
		// live traffic on both sides.
		mid := len(ops) / 2
		ops = append(ops[:mid:mid], append([]op{{kind: kindRestart}}, ops[mid:]...)...)
	}
	return ops
}

// splitRecords cuts records into n contiguous, non-empty parts (fewer
// when there are not enough records).
func splitRecords(records []trace.Record, n int) [][]trace.Record {
	if n > len(records) {
		n = len(records)
	}
	if n <= 1 {
		return [][]trace.Record{records}
	}
	out := make([][]trace.Record, 0, n)
	per := len(records) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if i == n-1 {
			hi = len(records)
		}
		out = append(out, records[lo:hi])
	}
	return out
}

// execute runs the ops on the worker pool and returns per-op results in
// op order.
func (d *Driver) execute(ops []op) []opResult {
	results := make([]opResult, len(ops))
	idx := make(chan int)
	done := make(chan struct{})
	for w := 0; w < d.cfg.Workers; w++ {
		go func() {
			for i := range idx {
				results[i] = d.runOp(ops[i])
			}
			done <- struct{}{}
		}()
	}
	for i := range ops {
		idx <- i
	}
	close(idx)
	for w := 0; w < d.cfg.Workers; w++ {
		<-done
	}
	return results
}

func (d *Driver) runOp(o op) opResult {
	switch o.kind {
	case kindInvalid:
		return d.runInvalid(o)
	case kindRestart:
		fmt.Fprintln(d.log, "loadgen: restarting server under load")
		if err := d.cfg.Restart(); err != nil {
			return opResult{violations: []Violation{{
				Invariant: "restart",
				Detail:    fmt.Sprintf("restart callback failed: %v", err),
			}}}
		}
		return opResult{}
	default:
		return d.runUpload(o)
	}
}

// maxTransientAttempts bounds the shed/throttle retry loop of a single
// op; exhausting it is reported as a violation, not a hang.
const maxTransientAttempts = 300

// runUpload delivers one keyed upload (sync or async) as a one-chunk
// v2 batch, transparently retrying transient rejections (429 throttle,
// 503 shed/restart), then optionally issues a deliberate duplicate and
// checks the replay contract.
func (d *Driver) runUpload(o op) opResult {
	var res opResult
	line, err := json.Marshal(service.BatchChunk{User: o.user, Records: o.records, Key: o.key, Async: o.async})
	if err != nil {
		res.violations = append(res.violations, Violation{Invariant: "harness", Detail: err.Error()})
		return res
	}

	respBody, replayed, vio := d.deliver(o, line)
	if vio != nil {
		res.violations = append(res.violations, *vio)
		return res
	}
	res.tally.Uploads++
	res.tally.Records += len(o.records)
	if o.async {
		res.tally.AsyncUploads++
	}
	if replayed {
		// A transient retry was answered from the idempotency window:
		// still exactly one logical upload; nothing extra to count.
		fmt.Fprintf(d.log, "loadgen: transient retry of (%s,%s) replayed\n", o.user, o.key)
	}

	if o.retry {
		v := d.duplicate(o, line, respBody)
		if v != nil {
			res.violations = append(res.violations, *v)
		} else {
			res.tally.Replays++
		}
	}
	return res
}

// deliver sends the upload until it is accepted. It returns the
// canonical result body (sync uploads; nil for async) and whether the
// accepted result was served as an idempotent replay. Transient
// rejections — request-level 429/503 (throttle, restart window) and
// chunk-level 429/503 result lines (shed) — are retried under the same
// key.
func (d *Driver) deliver(o op, line []byte) (respBody []byte, replayed bool, vio *Violation) {
	for attempt := 0; attempt < maxTransientAttempts; attempt++ {
		st, res, err := d.postChunk(o, line)
		if err != nil {
			// Connection-level failure (e.g. racing a restart): the key
			// makes the retry safe.
			d.backoff(attempt)
			continue
		}
		if st != http.StatusOK {
			if st == http.StatusTooManyRequests || st == http.StatusServiceUnavailable {
				d.backoff(attempt)
				continue
			}
			return nil, false, &Violation{
				Invariant: "upload-accepted",
				Detail:    fmt.Sprintf("upload (%s,%s) rejected at request level with %d", o.user, o.key, st),
			}
		}
		switch {
		case res.Status == http.StatusOK:
			data, merr := json.Marshal(res.Result)
			if merr != nil || res.Result == nil {
				return nil, false, &Violation{Invariant: "wire",
					Detail: fmt.Sprintf("200 result line without a result body for (%s,%s)", o.user, o.key)}
			}
			return data, res.Replay, nil
		case res.Status == http.StatusAccepted:
			if res.Job == nil {
				return nil, false, &Violation{Invariant: "wire", Detail: "202 result line without a job handle"}
			}
			ok, v := d.awaitJob(o, res.Job.ID)
			if v != nil {
				return nil, false, v
			}
			if !ok { // job lost to a restart: re-deliver under the same key
				d.backoff(attempt)
				continue
			}
			return nil, res.Replay, nil
		case res.Status == http.StatusTooManyRequests || res.Status == http.StatusServiceUnavailable:
			d.backoff(attempt)
			continue
		default:
			return nil, false, &Violation{
				Invariant: "upload-accepted",
				Detail: fmt.Sprintf("upload (%s,%s) rejected with %d (%s): %s",
					o.user, o.key, res.Status, res.Code, res.Error),
			}
		}
	}
	return nil, false, &Violation{
		Invariant: "upload-accepted",
		Detail:    fmt.Sprintf("upload (%s,%s) still shed after %d attempts", o.user, o.key, maxTransientAttempts),
	}
}

// awaitJob polls an async job to completion, riding out transient poll
// failures (throttles, restart-window 503s, connection errors) the same
// way the POST paths do. ok=false means the job handle vanished — the
// server restarted with its in-memory job store — and the caller should
// re-deliver under the same key.
func (d *Driver) awaitJob(o op, id string) (ok bool, vio *Violation) {
	for attempt := 0; attempt < maxTransientAttempts; attempt++ {
		j, err := d.client.Job(id)
		if err != nil {
			var se *service.StatusError
			if errors.As(err, &se) && se.Code == http.StatusNotFound {
				return false, nil
			}
			// 503 from a restarting backend, 429, or a dropped
			// connection: the job may still be progressing; keep polling.
			d.backoff(attempt)
			continue
		}
		switch j.State {
		case service.JobDone:
			return true, nil
		case service.JobFailed:
			if strings.HasPrefix(j.Error, "storage: ") {
				// The durability layer refused the commit (dying disk
				// during a crash window): nothing was applied, the key was
				// released — re-deliver, exactly like a sync 503.
				return false, nil
			}
			return false, &Violation{
				Invariant: "upload-accepted",
				Detail:    fmt.Sprintf("async upload (%s,%s) failed: %s", o.user, o.key, j.Error),
			}
		default:
			d.backoff(attempt)
		}
	}
	return false, &Violation{
		Invariant: "job-poll",
		Detail:    fmt.Sprintf("job %s for (%s,%s) still unfinished after %d polls", id, o.user, o.key, maxTransientAttempts),
	}
}

// duplicate re-sends an accepted upload under its key and checks the
// idempotent-replay contract: sync results must be byte-identical to
// the original, async results must name the same job (or replay its
// outcome after eviction); and the duplicate must never commit again
// (the final accounting check would catch a double commit).
func (d *Driver) duplicate(o op, line, origBody []byte) *Violation {
	for attempt := 0; attempt < maxTransientAttempts; attempt++ {
		st, res, err := d.postChunk(o, line)
		if err != nil || st == http.StatusTooManyRequests || st == http.StatusServiceUnavailable {
			d.backoff(attempt)
			continue
		}
		if st != http.StatusOK {
			return &Violation{
				Invariant: "replay-identical",
				Detail:    fmt.Sprintf("duplicate (%s,%s) answered request-level %d", o.user, o.key, st),
			}
		}
		if res.Status == http.StatusTooManyRequests || res.Status == http.StatusServiceUnavailable {
			d.backoff(attempt)
			continue
		}
		if res.Status != http.StatusOK && res.Status != http.StatusAccepted {
			return &Violation{
				Invariant: "replay-identical",
				Detail:    fmt.Sprintf("duplicate (%s,%s) answered %d (%s): %s", o.user, o.key, res.Status, res.Code, res.Error),
			}
		}
		if !res.Replay {
			return &Violation{
				Invariant: "replay-identical",
				Detail:    fmt.Sprintf("duplicate (%s,%s) was not served as a replay", o.user, o.key),
			}
		}
		if !o.async && origBody != nil {
			data, merr := json.Marshal(res.Result)
			if merr != nil || !bytes.Equal(data, origBody) {
				return &Violation{
					Invariant: "replay-identical",
					Detail:    fmt.Sprintf("replay of (%s,%s) differs from the original result: %s vs %s", o.user, o.key, truncate(data), truncate(origBody)),
				}
			}
		}
		return nil
	}
	return &Violation{
		Invariant: "replay-identical",
		Detail:    fmt.Sprintf("duplicate (%s,%s) still shed after %d attempts", o.user, o.key, maxTransientAttempts),
	}
}

// postChunk issues one chunk line as a v2 batch POST. It returns the
// request-level HTTP status and, when the batch was processed (200),
// the chunk's result line.
func (d *Driver) postChunk(o op, line []byte) (int, service.BatchResult, error) {
	body := append(append([]byte(nil), line...), '\n')
	req, err := http.NewRequest(http.MethodPost, d.client.BaseURL+"/v2/traces", bytes.NewReader(body))
	if err != nil {
		return 0, service.BatchResult{}, err
	}
	req.Header.Set("Content-Type", service.NDJSONContentType)
	req.Header.Set(service.UserHeader, o.user)
	if d.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+d.cfg.AuthToken)
	}
	resp, err := d.httpClient().Do(req)
	if err != nil {
		return 0, service.BatchResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, service.BatchResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, service.BatchResult{}, nil
	}
	var res service.BatchResult
	if err := json.Unmarshal(bytes.TrimSpace(data), &res); err != nil {
		return 0, service.BatchResult{}, fmt.Errorf("undecodable result line %q: %w", truncate(data), err)
	}
	return resp.StatusCode, res, nil
}

func (d *Driver) httpClient() *http.Client {
	if d.http != nil {
		return d.http
	}
	return http.DefaultClient
}

// backoff sleeps briefly between transient retries on the driver's
// injected clock: against a live server that is the system clock, and
// in virtual-time soaks a Manual clock makes even the retry pacing
// steppable (the *workload* is deterministic either way; pacing only
// affects wall time).
func (d *Driver) backoff(attempt int) {
	delay := 5 * time.Millisecond * time.Duration(attempt/10+1)
	if delay > 100*time.Millisecond {
		delay = 100 * time.Millisecond
	}
	d.clk.Sleep(delay)
}

func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 120 {
		s = s[:120] + "..."
	}
	return s
}
