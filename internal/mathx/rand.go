package mathx

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Rand is the random stream type used throughout MooD. It aliases
// math/rand.Rand so callers do not import math/rand directly, keeping
// the door open for swapping the generator in one place.
type Rand = rand.Rand

// NewRand returns a deterministic random stream for the given seed.
func NewRand(seed uint64) *Rand {
	return rand.New(rand.NewSource(int64(mix(seed))))
}

// DeriveRand returns a random stream deterministically derived from a
// base seed and a set of labels (for example a component name and a user
// ID). Distinct label sets yield independent-looking streams, which lets
// every stochastic component of the pipeline be reproducible without
// sharing mutable generator state across goroutines.
func DeriveRand(seed uint64, labels ...string) *Rand {
	return NewRand(DeriveSeed(seed, labels...))
}

// Reseed returns r restarted as the stream DeriveRand(seed, labels...)
// returns, without allocating a new generator (Seed resets the source
// and the read position alike); a nil r gets a new one.
func Reseed(r *Rand, seed uint64, labels ...string) *Rand {
	if r == nil {
		return DeriveRand(seed, labels...)
	}
	r.Seed(int64(mix(DeriveSeed(seed, labels...))))
	return r
}

// DeriveSeed returns the derived seed itself, for callers that need to
// fan out further.
func DeriveSeed(seed uint64, labels ...string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], seed)
	h.Write(buf[:]) //nolint:errcheck // fnv never fails
	for _, l := range labels {
		h.Write([]byte(l))    //nolint:errcheck
		h.Write([]byte{0x1f}) //nolint:errcheck // label separator
	}
	return h.Sum64()
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// mix is a splitmix64 finalizer so that nearby seeds produce unrelated
// generator states.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SamplePlanarLaplaceRadius draws the radial component of the planar
// (polar) Laplace distribution with privacy parameter eps (1/meters),
// using the exact inverse CDF from Andres et al.:
//
//	C_eps^{-1}(p) = -(1/eps) * (W-1((p-1)/e) + 1)
//
// The returned radius has mean 2/eps.
func SamplePlanarLaplaceRadius(rng *Rand, eps float64) float64 {
	p := rng.Float64()
	// Guard the p -> 1 corner where (p-1)/e -> 0- and W-1 -> -Inf.
	if p >= 1-1e-15 {
		p = 1 - 1e-15
	}
	w := LambertWm1((p - 1) / math.E)
	return -(w + 1) / eps
}

// Shuffle permutes xs in place using rng.
func Shuffle[T any](rng *Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Choice returns a uniformly random element of xs. It panics on an empty
// slice, which is a programming error at call sites.
func Choice[T any](rng *Rand, xs []T) T {
	return xs[rng.Intn(len(xs))]
}
