package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// The benchmark's own file traffic: a scratch directory for the WALs of
// the systems it boots, and the report and span artifacts it leaves
// behind. None of it is server state, so it goes around the store
// abstraction on purpose; each os call below carries the waiver the
// persistio analyzer asks for.

// scratchRoot is where repetitions put their WAL directories: inside
// the working directory (the benchmark reads and writes only inside its
// checkout), under the build-output directory the repo's .gitignore
// already names.
func scratchRoot() (string, error) {
	root := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	//mood:allow persistio -- benchmark scratch dir, not server state
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(root)
}

// removeScratch deletes a repetition's (or the run's) scratch directory.
func removeScratch(dir string) {
	//mood:allow persistio -- benchmark scratch dir teardown, not server state
	os.RemoveAll(dir) //nolint:errcheck // best effort; the next run uses a fresh directory
}

// writeArtifact writes one benchmark artifact. With appendTo set the
// bytes are appended (a report file accumulates one JSON line per run,
// which is what -compare reads); otherwise the file is replaced.
func writeArtifact(path string, appendTo bool, write func(w *bufio.Writer) error) error {
	flag := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if appendTo {
		flag = os.O_WRONLY | os.O_CREATE | os.O_APPEND
	}
	//mood:allow persistio -- benchmark artifact, not server state
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendReport adds one run's report to the -out file as a JSON line.
func appendReport(path string, r *report) error {
	return writeArtifact(path, true, func(w *bufio.Writer) error {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	})
}

// spanRecord is the -trace-out form of one span: one JSON object per
// line, names spelled out, times in nanoseconds since the first span of
// the file's run.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 = root or not linked
	Op      uint32 `json:"op"`     // 0 = aggregate-only seam or untimed work
	Layer   string `json:"layer"`
	Detail  string `json:"detail,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes the tracer's spans to the -trace-out file.
func writeSpans(path string, tr *tracer) error {
	spans := tr.snapshot()
	return writeArtifact(path, false, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for i, s := range spans {
			rec := spanRecord{
				ID: i, Parent: int(s.Parent), Op: s.Op,
				Layer: s.Layer.String(), Detail: tr.details[s.Detail],
				StartNs: s.Start, EndNs: s.End,
			}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("writing span %d: %w", i, err)
			}
		}
		return nil
	})
}
