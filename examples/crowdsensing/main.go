// Crowd-sensing: the paper's deployment scenario (§3.4, §4.2).
//
// A noise-mapping campaign collects daily mobility chunks from
// participants. The MooD middleware sits between the phones and the
// campaign database: every upload is protected before storage, and
// fragments that cannot be protected are discarded server-side.
//
// The example starts the middleware in-process, simulates participants
// uploading their days one by one, and finally audits the published
// dataset with the same attacks the middleware defends against.
//
// Run with:
//
//	go run ./examples/crowdsensing
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"mood"
	"mood/internal/service"
)

func main() {
	// Campaign setup: historical data trains the attacks.
	dataset, err := mood.GenerateDataset("mdc", "tiny", 11)
	if err != nil {
		log.Fatal(err)
	}
	background, campaign := mood.SplitTrainTest(dataset, 0.5, 20)

	pipeline, err := mood.NewPipeline(background.Traces, mood.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}

	// Start the middleware (in production: cmd/moodserver). The chain
	// is the production one: panic recovery, request timeout, per-user
	// rate limiting, request metrics — only auth is left off here.
	srv, err := service.New(protector{pipeline},
		service.WithRateLimit(50, 100), // generous: participants upload once a day
		service.WithQueueDepth(32),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	fmt.Printf("middleware listening at %s\n\n", hs.URL)

	// Participants upload day by day. The simulation keeps ground-truth
	// provenance (which pseudonyms belong to whom) by diffing the
	// published dataset after each participant — an auditor's trick a
	// real attacker does not have.
	client := service.NewClient(hs.URL)
	provenance := map[string]string{} // pseudonym -> true participant
	seen := map[string]bool{}
	for i, participant := range campaign.Traces {
		// Every phone streams its backlog of daily chunks as one
		// /v2/traces NDJSON batch — one connection, one rate-limit
		// check, per-chunk results. Odd participants mark their chunks
		// asynchronous: each result line is a 202 + job ID at once and
		// the outcome is polled, as a battery-conscious client would.
		resps, err := uploadDaily(client, participant, i%2 == 1)
		if err != nil {
			log.Fatal(err)
		}
		var accepted, rejected int
		for _, r := range resps {
			accepted += r.Accepted
			rejected += r.Rejected
		}
		fmt.Printf("%-14s %2d daily uploads, %5d records accepted, %4d rejected\n",
			participant.User, len(resps), accepted, rejected)

		snapshot, err := client.Dataset()
		if err != nil {
			log.Fatal(err)
		}
		for _, tr := range snapshot.Traces {
			if !seen[tr.User] {
				seen[tr.User] = true
				provenance[tr.User] = participant.User
			}
		}
	}

	// Campaign-side accounting.
	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncampaign: %d uploads from %d participants\n", stats.Uploads, stats.Users)
	fmt.Printf("records: %d in, %d published (%.1f%%), %d rejected\n",
		stats.RecordsIn, stats.RecordsPublished,
		100*float64(stats.RecordsPublished)/float64(stats.RecordsIn),
		stats.RecordsRejected)

	// Audit the published dataset with ground truth: a leak is an attack
	// attribution that matches the fragment's true uploader.
	published, err := client.Dataset()
	if err != nil {
		log.Fatal(err)
	}
	leaks := 0
	for _, tr := range published.Traces {
		owner := provenance[tr.User]
		if hit, _ := pipeline.ReIdentifies(tr.WithUser(""), owner); hit {
			leaks++
		}
	}
	fmt.Printf("published: %d pseudonymous traces, correctly re-identified (leaks): %d\n",
		published.NumUsers(), leaks)

	// The operator's view: per-route request metrics from the chain.
	snap, err := client.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	batch := snap.Routes["POST /v2/traces"]
	fmt.Printf("server: %d batch requests, avg %.1f ms, max %.1f ms\n",
		batch.Count, batch.AvgMillis, batch.MaxMillis)
}

// uploadDaily sends every daily chunk in one streaming batch and
// collects the per-chunk outcomes, polling the job of each async chunk.
func uploadDaily(c *service.Client, participant mood.Trace, async bool) ([]service.UploadResponse, error) {
	chunks := participant.Chunks(24 * time.Hour)
	batch := make([]service.BatchChunk, len(chunks))
	for i, ch := range chunks {
		batch[i] = service.BatchChunk{User: ch.User, Records: ch.Records, Async: async}
	}
	results, err := c.UploadBatch(batch)
	if err != nil {
		return nil, err
	}
	out := make([]service.UploadResponse, 0, len(results))
	for _, res := range results {
		if res.Status == http.StatusAccepted {
			done, err := c.WaitJob(res.Job.ID, time.Minute)
			if err != nil {
				return out, err
			}
			if done.State != service.JobDone {
				return out, fmt.Errorf("job %s failed: %s", done.ID, done.Error)
			}
			res.Status, res.Result = http.StatusOK, done.Result
		}
		if res.Status != http.StatusOK {
			return out, fmt.Errorf("chunk %d: %d %s %s", res.Index, res.Status, res.Code, res.Error)
		}
		out = append(out, *res.Result)
	}
	return out, nil
}

// protector adapts the public pipeline to the middleware interface.
type protector struct {
	p *mood.Pipeline
}

func (pr protector) Protect(t mood.Trace) (mood.Result, error) { return pr.p.Protect(t) }
