package main

import (
	"flag"
	"fmt"
	"os"

	"mood"
	"mood/internal/service"
	"mood/internal/trace"
	"mood/internal/traceio"
)

// The server-facing subcommands: moodctl is also the operator's v2
// client, exercising the streaming batch upload and the paginated
// dataset exactly as a production integration would.

// uploadCmd streams a CSV dataset to POST /v2/traces.
func uploadCmd(args []string) error {
	fs := flag.NewFlagSet("moodctl upload", flag.ContinueOnError)
	server := fs.String("server", "", "base URL of the moodserver (required)")
	in := fs.String("in", "", "CSV file with the raw traces to upload (required)")
	token := fs.String("token", "", "bearer token")
	batch := fs.Int("batch", 256, "chunks per batch request")
	keyPrefix := fs.String("key-prefix", "", "idempotency key prefix; keys are <prefix>-<index> (empty disables keying)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" || *in == "" {
		return fmt.Errorf("-server and -in are required")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be at least 1")
	}

	ds, err := mood.LoadCSVFile(*in, "upload")
	if err != nil {
		return err
	}
	client := service.NewClient(*server).SetAuthToken(*token)

	// One chunk per (user, day), batched: the participant-side shape of
	// the paper's crowd-sensing scenario, fed in bulk.
	var chunks []service.BatchChunk
	for _, tr := range ds.Traces {
		for _, day := range tr.Chunks(trace.Day) {
			c := service.BatchChunk{User: day.User, Records: day.Records}
			if *keyPrefix != "" {
				c.Key = fmt.Sprintf("%s-%d", *keyPrefix, len(chunks))
			}
			chunks = append(chunks, c)
		}
	}

	var accepted, rejected, pieces, failed int
	for start := 0; start < len(chunks); start += *batch {
		end := min(start+*batch, len(chunks))
		err := client.UploadBatchStream(chunks[start:end], func(res service.BatchResult) error {
			switch {
			case res.Status == 200 && res.Result != nil:
				accepted += res.Result.Accepted
				rejected += res.Result.Rejected
				pieces += res.Result.Pieces
			case res.Status == 202:
				// Async chunks are not produced by this command; count
				// defensively so a server change is visible.
				fallthrough
			default:
				failed++
				fmt.Fprintf(os.Stderr, "moodctl: chunk %d (%s): %d %s %s\n",
					start+res.Index, res.User, res.Status, res.Code, res.Error)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("batch %d..%d: %w", start, end, err)
		}
	}
	fmt.Printf("uploaded %d chunks: %d records published, %d erased, %d fragments, %d failed chunks\n",
		len(chunks), accepted, rejected, pieces, failed)
	return nil
}

// datasetCmd pages through GET /v2/dataset and writes CSV.
func datasetCmd(args []string) error {
	fs := flag.NewFlagSet("moodctl dataset", flag.ContinueOnError)
	server := fs.String("server", "", "base URL of the moodserver (required)")
	token := fs.String("token", "", "bearer token")
	out := fs.String("out", "", "output CSV path (default stdout)")
	user := fs.String("user", "", "filter: exact published pseudonym")
	from := fs.Int64("from", 0, "filter: time-range start, unix seconds")
	to := fs.Int64("to", 0, "filter: time-range end, unix seconds (half-open)")
	limit := fs.Int("limit", 500, "page size (1..1000)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("-server is required")
	}

	client := service.NewClient(*server).SetAuthToken(*token)
	q := service.DatasetQuery{Limit: *limit, User: *user, From: *from, To: *to}
	var traces []trace.Trace
	pages := 0
	for page, err := range client.DatasetPages(q) {
		if err != nil {
			return err
		}
		pages++
		traces = append(traces, page.Traces...)
	}
	ds := trace.Dataset{Name: service.PublishedDatasetName, Traces: traces}

	w := os.Stdout
	if *out != "" {
		//mood:allow persistio -- the -out CSV export is a CLI artifact, not server state
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := traceio.WriteCSV(w, ds); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "moodctl: %d traces (%d records) in %d pages\n",
		ds.NumUsers(), ds.NumRecords(), pages)
	return nil
}
