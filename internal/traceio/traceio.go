// Package traceio reads and writes mobility traces and datasets in two
// interchange formats:
//
//   - CSV with the header "user,lat,lon,ts" — the format consumed and
//     produced by the cmd/ tools, compatible with the flat exports of the
//     public mobility datasets the paper uses;
//   - JSON lines, one trace object per line — the format of the
//     crowd-sensing middleware wire protocol.
package traceio

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"mood/internal/trace"
)

// CSVHeader is the required first line of the CSV format.
var CSVHeader = []string{"user", "lat", "lon", "ts"}

// WriteCSV writes the dataset in CSV format.
func WriteCSV(w io.Writer, d trace.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return fmt.Errorf("traceio: write header: %w", err)
	}
	row := make([]string, 4)
	for _, t := range d.Traces {
		for _, r := range t.Records {
			row[0] = t.User
			row[1] = strconv.FormatFloat(r.Lat, 'f', 7, 64)
			row[2] = strconv.FormatFloat(r.Lon, 'f', 7, 64)
			row[3] = strconv.FormatInt(r.TS, 10)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("traceio: write record: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("traceio: flush: %w", err)
	}
	return nil
}

// ReadCSV reads a dataset in CSV format. The dataset name is supplied by
// the caller because the format does not carry one.
func ReadCSV(r io.Reader, name string) (trace.Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = 4

	header, err := cr.Read()
	if err != nil {
		return trace.Dataset{}, fmt.Errorf("traceio: read header: %w", err)
	}
	for i, want := range CSVHeader {
		if header[i] != want {
			return trace.Dataset{}, fmt.Errorf("traceio: bad header column %d: got %q, want %q", i, header[i], want)
		}
	}

	perUser := map[string][]trace.Record{}
	line := 1
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		line++
		if err != nil {
			return trace.Dataset{}, fmt.Errorf("traceio: line %d: %w", line, err)
		}
		lat, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return trace.Dataset{}, fmt.Errorf("traceio: line %d: lat: %w", line, err)
		}
		lon, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return trace.Dataset{}, fmt.Errorf("traceio: line %d: lon: %w", line, err)
		}
		ts, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return trace.Dataset{}, fmt.Errorf("traceio: line %d: ts: %w", line, err)
		}
		perUser[row[0]] = append(perUser[row[0]], trace.Record{Lat: lat, Lon: lon, TS: ts})
	}

	traces := make([]trace.Trace, 0, len(perUser))
	for user, rs := range perUser {
		traces = append(traces, trace.New(user, rs))
	}
	d := trace.NewDataset(name, traces)
	if err := d.Validate(); err != nil {
		return trace.Dataset{}, fmt.Errorf("traceio: %w", err)
	}
	return d, nil
}

// WriteJSONL writes one JSON-encoded trace per line, each exactly as
// json.Encoder writes a trace.Trace. The lines gather in one buffer,
// written out each time it holds 4 KiB or more: sized for that plus a
// line, it is the only allocation of a dataset of lines up to 4 KiB.
func WriteJSONL(w io.Writer, d trace.Dataset) error {
	buf := make([]byte, 0, 8<<10)
	for i, t := range d.Traces {
		var err error
		if buf, err = trace.AppendTraceJSON(buf, t); err != nil {
			return fmt.Errorf("traceio: encode trace %q: %w", t.User, err)
		}
		buf = append(buf, '\n')
		if len(buf) < 4<<10 && i < len(d.Traces)-1 {
			continue
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("traceio: write: %w", err)
		}
		buf = buf[:0]
	}
	return nil
}

// ReadJSONL reads a dataset written by WriteJSONL.
func ReadJSONL(r io.Reader, name string) (trace.Dataset, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var traces []trace.Trace
	for {
		var t trace.Trace
		if err := dec.Decode(&t); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return trace.Dataset{}, fmt.Errorf("traceio: decode trace %d: %w", len(traces), err)
		}
		t.SortInPlace()
		traces = append(traces, t)
	}
	d := trace.NewDataset(name, traces)
	if err := d.Validate(); err != nil {
		return trace.Dataset{}, fmt.Errorf("traceio: %w", err)
	}
	return d, nil
}

// SaveCSVFile writes the dataset to path in CSV format.
func SaveCSVFile(path string, d trace.Dataset) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("traceio: close %s: %w", path, cerr)
		}
	}()
	return WriteCSV(f, d)
}

// LoadCSVFile reads a dataset from path in CSV format.
func LoadCSVFile(path, name string) (trace.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Dataset{}, fmt.Errorf("traceio: %w", err)
	}
	defer f.Close()
	return ReadCSV(bufio.NewReader(f), name)
}
