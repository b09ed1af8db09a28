package service

import (
	"encoding/json"

	"mood/internal/trace"
)

// The client's decoder of a JSON dataset page (200 traces of 50
// records, 640 KB, on the benchmark's cluster), which encoding/json
// reads three times. scanDatasetPage reads the canonical shape — what
// the node and the router's splice write — once, with trace's scanner,
// which converts each coordinate as it checks its grammar: with no
// exponent, ≤ 19 significant digits and ≤ 22 fraction digits, one exact
// division for a mantissa below 2^53 (four in five published ones), an
// Eisel–Lemire step above; strconv.ParseFloat on the token otherwise.
// Any other shape (escapes, non-UTF-8, unknown or repeated keys, nulls)
// reports ok=false and encoding/json decides (FuzzDatasetPageDecode).

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
