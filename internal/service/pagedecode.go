package service

import (
	"encoding/json"

	"mood/internal/trace"
)

// The client's decoder of a JSON dataset page. A page is 200 traces of
// 50 records in 640 KB on the benchmark's cluster, and encoding/json
// reads it three times: the decoder's scan for the end of the value,
// the reflective walk, and Records.UnmarshalJSON's own pass over every
// array the walk hands it. scanDatasetPage reads the canonical shape —
// what the node and the cluster router's splice write — once, with
// trace's scanner; anything else (escaped or non-UTF-8 strings, unknown
// or repeated keys, nulls, garbage) reports ok=false and encoding/json
// decides, with its exact values and errors (pinned by
// FuzzDatasetPageDecode).

// decodeDatasetPage decodes one JSON dataset page body.
func decodeDatasetPage(body []byte) (DatasetPage, error) {
	if page, ok := scanDatasetPage(body); ok {
		return page, nil
	}
	var page DatasetPage
	err := json.Unmarshal(body, &page)
	return page, err
}

func scanDatasetPage(body []byte) (DatasetPage, bool) {
	var page DatasetPage
	var seen uint
	sc := trace.NewScanner(body)
	for {
		key, ok := sc.Field(&seen, "name", "traces", "next_cursor", "total_users")
		switch key {
		case "":
			return page, ok && sc.End()
		case "name":
			page.Name, ok = sc.ParseString()
		case "traces":
			page.Traces, ok = sc.ParseTraces()
		case "next_cursor":
			page.NextCursor, ok = sc.ParseString()
		case "total_users":
			page.TotalUsers, ok = sc.ParseInt()
		}
		if !ok {
			return page, false
		}
	}
}
