package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"mood/internal/mathx"
	"mood/internal/trace"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: a tail read off fewer points is an anecdote, not a
// percentile (choosing-metrics guide, §1).
const minTailSamples = 10

// quantile returns the p-quantile (0 < p < 1) of an ascending-sorted
// sample by nearest rank; 0 on an empty one.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// percentile is quantile for a figure that is reported: it refuses samples
// too small to leave minTailSamples points beyond the rank — p90
// therefore needs 100 samples, p99 a thousand — so a short run reports no
// tail rather than one it did not observe. The median is exempt: it only
// needs a non-empty sample.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.2f of an empty sample", p)
	}
	if beyond := n - int(math.Ceil(p*float64(n))); p > 0.5 && beyond < minTailSamples {
		return 0, fmt.Errorf("percentile %.2f needs %d samples, have %d",
			p, int(math.Ceil(minTailSamples/(1-p))), n)
	}
	return quantile(sorted, p), nil
}

// median is the conventional median (mean of the middle pair on even
// counts) of an unsorted sample; 0 on an empty one.
func median(xs []float64) float64 { return mathx.Percentile(xs, 50) }

// quietQuartile is the first quartile of the sample counted from its good
// end, by nearest rank: the value a quarter of the repetitions did at
// least as well as — the best of up to four, the second best of five to
// eight, the third best of nine to twelve. higherIsBetter says which end
// is the good one. 0 on an empty sample.
func quietQuartile(xs []float64, higherIsBetter bool) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (n + 3) / 4
	if higherIsBetter {
		return s[n-rank]
	}
	return s[rank-1]
}

// iqrShare is the inter-quartile distance of the sample as a share of
// its median — the spread figure the comparison and the README's bound
// sizing use. The quartiles follow Python's statistics.quantiles(n=4)
// (exclusive method), so the harness and the driver agree on the number.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// failedShare is failed ÷ attempted. A refused (429/503), timed-out,
// errored or wrong-answer op is failed; it also contributes no latency
// sample, so it can never flatter a percentile.
func failedShare(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// datasetDigest fingerprints a published dataset independent of page
// order, fragment order and pseudonyms: every fragment hashes its
// records (coordinates bit for bit, timestamps) and the fragment hashes
// are summed modulo 2^64. Pseudonyms are excluded because the service
// numbers whole-trace fragments in commit order, which depends on
// scheduling; the records do not.
type datasetDigest struct {
	sum       uint64
	fragments int
	records   int
}

func (d *datasetDigest) add(t trace.Trace) {
	d.sum += fragmentHash(t.Records)
	d.fragments++
	d.records += len(t.Records)
}

func (d datasetDigest) String() string {
	return fmt.Sprintf("%016x/%d/%d", d.sum, d.fragments, d.records)
}

// fragmentHash is FNV-1a over the records' binary form. It also keys
// the owner map of the traced run's re-identification check.
func fragmentHash(rs []trace.Record) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.Lat))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Lon))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.TS))
		h.Write(buf[:]) //nolint:errcheck // fnv never fails
	}
	return h.Sum64()
}
