package trace

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"mood/internal/mathx"
)

// The sequential references: the per-user loops that NewDataset,
// Window, SplitTrainTest and Validate ran before they fanned out.

func seqNewDataset(name string, traces []Trace) Dataset {
	byUser := make(map[string][]Trace, len(traces))
	users := make([]string, 0, len(traces))
	for _, t := range traces {
		if _, seen := byUser[t.User]; !seen {
			users = append(users, t.User)
		}
		byUser[t.User] = append(byUser[t.User], t)
	}
	sort.Strings(users)
	out := make([]Trace, 0, len(users))
	for _, u := range users {
		if ts := byUser[u]; len(ts) == 1 {
			out = append(out, ts[0])
		} else {
			out = append(out, Merge(ts...))
		}
	}
	return Dataset{Name: name, Traces: out}
}

func seqWindow(d Dataset, from, to int64) Dataset {
	out := make([]Trace, 0, len(d.Traces))
	for _, t := range d.Traces {
		if w := t.Window(from, to); !w.Empty() {
			out = append(out, w)
		}
	}
	return Dataset{Name: d.Name, Traces: out}
}

func seqSplitTrainTest(d Dataset, frac float64, minRecords int) (train, test Dataset) {
	start, end := d.TimeSpan()
	cut := start + int64(float64(end-start)*frac)
	train = Dataset{Name: d.Name + "/train", Traces: make([]Trace, 0, len(d.Traces))}
	test = Dataset{Name: d.Name + "/test", Traces: make([]Trace, 0, len(d.Traces))}
	for _, t := range d.Traces {
		if b, a := t.SplitAt(cut); b.Len() >= minRecords && a.Len() >= minRecords {
			train.Traces = append(train.Traces, b)
			test.Traces = append(test.Traces, a)
		}
	}
	return train, test
}

func seqValidate(d Dataset) error {
	for i, t := range d.Traces {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("dataset %q: %w", d.Name, err)
		}
		if i > 0 && d.Traces[i-1].User >= t.User {
			return fmt.Errorf("dataset %q: traces not strictly sorted by user at index %d (%q >= %q)",
				d.Name, i, d.Traces[i-1].User, t.User)
		}
	}
	return nil
}

// randomTraces draws n traces over about ten days for about n/2 user
// IDs, so most users come in several pieces; some pieces are empty and
// some share timestamps with the user's other pieces.
func randomTraces(rng *mathx.Rand, n int) []Trace {
	out := make([]Trace, n)
	for i := range out {
		recs := make([]Record, rng.Intn(40))
		ts := rng.Int63n(10 * 86400)
		for j := range recs {
			recs[j] = Record{Lat: 45 + rng.Float64(), Lon: 4 + rng.Float64(), TS: ts}
			ts += rng.Int63n(3 * 3600)
		}
		out[i] = Trace{User: fmt.Sprintf("u%03d", rng.Intn(n/2+1)), Records: recs}
	}
	return out
}

// TestFanOutMatchesSequential: at every GOMAXPROCS, the fanned-out
// per-user operations equal their sequential references, trace for
// trace and in the same order.
func TestFanOutMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for seed := uint64(1); seed <= 8; seed++ {
			rng := mathx.NewRand(seed)
			raw := randomTraces(rng, 8+int(seed)*12)
			d := NewDataset("d", raw)
			if want := seqNewDataset("d", raw); !reflect.DeepEqual(d, want) {
				t.Fatalf("procs %d, seed %d: NewDataset differs from the sequential merge", procs, seed)
			}
			from := rng.Int63n(5 * 86400)
			to := from + rng.Int63n(5*86400)
			if got, want := d.Window(from, to), seqWindow(d, from, to); !reflect.DeepEqual(got, want) {
				t.Fatalf("procs %d, seed %d: Window(%d, %d) differs from the sequential one", procs, seed, from, to)
			}
			frac, minRecords := rng.Float64(), rng.Intn(20)
			train, test := d.SplitTrainTest(frac, minRecords)
			wantTrain, wantTest := seqSplitTrainTest(d, frac, minRecords)
			if !reflect.DeepEqual(train, wantTrain) || !reflect.DeepEqual(test, wantTest) {
				t.Fatalf("procs %d, seed %d: SplitTrainTest(%v, %d) differs from the sequential one", procs, seed, frac, minRecords)
			}
		}
	}
}

// TestValidateReturnsFirstError: with several invalid traces of every
// kind, the parallel check returns the sequential check's error, the
// one at the lowest index, word for word.
func TestValidateReturnsFirstError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for seed := uint64(1); seed <= 20; seed++ {
			rng := mathx.DeriveRand(seed, "validate")
			d := NewDataset("d", randomTraces(rng, 60))
			for range 1 + rng.Intn(4) {
				i := rng.Intn(len(d.Traces))
				tr := d.Traces[i].Clone()
				switch rng.Intn(3) {
				case 0: // a coordinate off the globe
					tr.Records = append(tr.Records, Record{Lat: 91, TS: tr.End() + 1})
				case 1: // records out of order
					tr.Records = append(tr.Records, Record{Lat: 45, Lon: 4, TS: tr.End() + 2}, Record{Lat: 45, Lon: 4, TS: tr.End() + 1})
				default: // a user ID out of order: a neighbour's
					tr.User = d.Traces[(i+1)%len(d.Traces)].User
				}
				d.Traces[i] = tr
			}
			got, want := d.Validate(), seqValidate(d)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("procs %d, seed %d: Validate = %v, want %v", procs, seed, got, want)
			}
		}
	}
}
