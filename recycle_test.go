package mood_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mood"
	"mood/internal/mathx"
)

// chunks cuts every trace of d into span-long chunks, as crowd-sensing
// clients upload them, each in records of its own, as a server parses
// them.
func chunks(d mood.Dataset, span time.Duration) []mood.Trace {
	var out []mood.Trace
	for _, tr := range d.Traces {
		for _, c := range tr.Chunks(span) {
			out = append(out, c.Clone())
		}
	}
	return out
}

// TestProtectAllocBudget pins the engine's allocation per protected
// chunk: the candidates that lose a fragment's selection go back to the
// record pool, HMC runs once per fragment, and the selection (with its
// random source) is reused. Before that the same chunks cost about
// 42 KiB each.
func TestProtectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	const (
		rounds = 3
		budget = 16 << 10 // bytes per protected chunk
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, test := env(t, 131)
	days := chunks(test, 24*time.Hour)
	protect := func() {
		for _, c := range days {
			if _, err := p.Protect(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	protect() // warm the pools
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		protect()
	}
	runtime.ReadMemStats(&after)
	perChunk := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(days))
	t.Logf("%d chunks: %d bytes allocated per protected chunk", len(days), perChunk)
	if perChunk > budget {
		t.Fatalf("%d bytes allocated per protected chunk, budget %d", perChunk, budget)
	}
}

// identityMech hands back the trace it was given; suffixMech hands back
// all of it but the first record. Neither output may ever be recycled:
// it is the caller's memory.
type identityMech struct{}

func (identityMech) Name() string { return "identity" }
func (identityMech) Obfuscate(_ *mathx.Rand, t mood.Trace) (mood.Trace, error) {
	return t, nil
}

type suffixMech struct{}

func (suffixMech) Name() string { return "suffix" }
func (suffixMech) Obfuscate(_ *mathx.Rand, t mood.Trace) (mood.Trace, error) {
	return mood.Trace{User: t.User, Records: t.Records[min(1, len(t.Records)-1):]}, nil
}

// TestProtectNeverRecyclesWhatItWasGiven: with an extra mechanism that
// returns its input, or a slice of it, in the portfolio, many chunks
// protected at once leave every input trace equal to a copy taken
// before, and every published piece equal to a copy taken when its
// Protect returned, once all of them are done.
func TestProtectNeverRecyclesWhatItWasGiven(t *testing.T) {
	const workers = 4
	for _, extra := range []mood.Mechanism{identityMech{}, suffixMech{}} {
		p, test := env(t, 141, mood.WithExtraMechanisms(extra))
		// Day chunks and half-day chunks: a buffer of about 100 records
		// that went back to the pool serves the next output of about 50.
		in := append(chunks(test, 24*time.Hour), chunks(test, 12*time.Hour)...)
		inputs := make([]mood.Trace, len(in))
		for i, c := range in {
			inputs[i] = c.Clone()
		}
		pieces := make([][]mood.Piece, len(in))
		published := make([][]mood.Piece, len(in))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(in); i += workers {
					res, err := p.Protect(in[i])
					if err != nil {
						t.Error(err)
						return
					}
					pieces[i] = res.Pieces
					for _, pc := range res.Pieces {
						pc.Trace = pc.Trace.Clone()
						published[i] = append(published[i], pc)
					}
				}
			}(w)
		}
		wg.Wait()
		for i := range in {
			if !reflect.DeepEqual(in[i], inputs[i]) {
				t.Fatalf("%s: input chunk %d (%s) changed under Protect", extra.Name(), i, in[i].User)
			}
			if !reflect.DeepEqual(pieces[i], published[i]) {
				t.Fatalf("%s: a piece of chunk %d (%s) changed after it was published", extra.Name(), i, in[i].User)
			}
		}
	}
}
