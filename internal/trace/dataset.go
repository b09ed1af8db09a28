package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"mood/internal/par"
)

// Dataset is a named collection of per-user traces. Traces are kept
// sorted by user ID so every iteration order in the pipeline is
// deterministic.
//
// NewDataset, Window, SplitTrainTest and Validate do their per-user work
// on every core (internal/par): each user's result lands in its own
// index, and the users that drop out are compacted away in order, so
// the result equals a sequential loop's.
type Dataset struct {
	Name   string  `json:"name"`
	Traces []Trace `json:"traces"`
}

// NewDataset builds a dataset from traces, sorting them by user ID.
// Traces with duplicate user IDs are merged, the users in parallel.
func NewDataset(name string, traces []Trace) Dataset {
	byUser := make(map[string][]Trace, len(traces))
	users := make([]string, 0, len(traces))
	for _, t := range traces {
		if _, seen := byUser[t.User]; !seen {
			users = append(users, t.User)
		}
		byUser[t.User] = append(byUser[t.User], t)
	}
	sort.Strings(users)
	out := make([]Trace, len(users))
	par.Each(len(users), func(i int) {
		if ts := byUser[users[i]]; len(ts) == 1 {
			out[i] = ts[0]
		} else {
			out[i] = Merge(ts...)
		}
	})
	return Dataset{Name: name, Traces: out}
}

// Users returns the sorted user IDs present in the dataset.
func (d Dataset) Users() []string {
	users := make([]string, len(d.Traces))
	for i, t := range d.Traces {
		users[i] = t.User
	}
	return users
}

// NumUsers returns the number of distinct users.
func (d Dataset) NumUsers() int { return len(d.Traces) }

// NumRecords returns |D|_r, the total record count of the dataset
// (the unit of the paper's data-loss metric, Eq. 7).
func (d Dataset) NumRecords() int {
	var n int
	for _, t := range d.Traces {
		n += t.Len()
	}
	return n
}

// Trace returns the trace of user, and whether it exists.
func (d Dataset) Trace(user string) (Trace, bool) {
	i := sort.Search(len(d.Traces), func(i int) bool { return d.Traces[i].User >= user })
	if i < len(d.Traces) && d.Traces[i].User == user {
		return d.Traces[i], true
	}
	return Trace{}, false
}

// Window restricts every trace to [from, to), user-parallel, and drops
// users that end up empty.
func (d Dataset) Window(from, to int64) Dataset {
	out := make([]Trace, len(d.Traces))
	par.Each(len(out), func(i int) { out[i] = d.Traces[i].Window(from, to) })
	return Dataset{Name: d.Name, Traces: slices.DeleteFunc(out, Trace.Empty)}
}

// TimeSpan returns the earliest start and the latest end across traces.
func (d Dataset) TimeSpan() (start, end int64) {
	first := true
	for _, t := range d.Traces {
		if t.Empty() {
			continue
		}
		if first || t.Start() < start {
			start = t.Start()
		}
		if first || t.End() > end {
			end = t.End()
		}
		first = false
	}
	return start, end
}

// SplitTrainTest splits each user's trace chronologically at the given
// fraction of the dataset's global time span and keeps only users active
// in both halves, mirroring the paper's 15-day background / 15-day test
// protocol (§4.2). minRecords is the activity threshold per half. The
// users are split in parallel.
func (d Dataset) SplitTrainTest(frac float64, minRecords int) (train, test Dataset) {
	start, end := d.TimeSpan()
	cut := start + int64(float64(end-start)*frac)
	trainTraces := make([]Trace, len(d.Traces))
	testTraces := make([]Trace, len(d.Traces))
	par.Each(len(d.Traces), func(i int) { trainTraces[i], testTraces[i] = d.Traces[i].SplitAt(cut) })
	kept := 0
	for i := range d.Traces {
		if trainTraces[i].Len() >= minRecords && testTraces[i].Len() >= minRecords {
			trainTraces[kept], testTraces[kept] = trainTraces[i], testTraces[i]
			kept++
		}
	}
	return Dataset{Name: d.Name + "/train", Traces: trainTraces[:kept]},
		Dataset{Name: d.Name + "/test", Traces: testTraces[:kept]}
}

// Validate checks every trace, in parallel, and that user IDs are unique
// and sorted; it returns the lowest-index error, as a sequential check would.
func (d Dataset) Validate() error {
	errs := make([]error, len(d.Traces))
	par.Each(len(d.Traces), func(i int) {
		t := d.Traces[i]
		if err := t.Validate(); err != nil {
			errs[i] = fmt.Errorf("dataset %q: %w", d.Name, err)
		} else if i > 0 && d.Traces[i-1].User >= t.User {
			errs[i] = fmt.Errorf("dataset %q: traces not strictly sorted by user at index %d (%q >= %q)",
				d.Name, i, d.Traces[i-1].User, t.User)
		}
	})
	return cmp.Or(errs...)
}

// String summarises the dataset.
func (d Dataset) String() string {
	return fmt.Sprintf("dataset(%s, %d users, %d records)", d.Name, d.NumUsers(), d.NumRecords())
}

// Day is a convenience constant for chunking (24 h in seconds).
const Day = 24 * time.Hour
