package traceio

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"mood/internal/trace"
)

// SaveFile writes the dataset to path, choosing the format from the
// extension: .csv, .jsonl, and their gzipped variants (.csv.gz,
// .jsonl.gz).
func SaveFile(path string, d trace.Dataset) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("traceio: close %s: %w", path, cerr)
		}
	}()

	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	if strings.Contains(path, ".jsonl") {
		err = WriteJSONL(w, d)
	} else {
		err = WriteCSV(w, d)
	}
	if err != nil {
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return fmt.Errorf("traceio: gzip close: %w", err)
		}
	}
	return nil
}
