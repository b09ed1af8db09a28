package lppm

import (
	"math/bits"
	"sync"

	"mood/internal/trace"
)

// The built-in mechanisms write every output into a record buffer from
// one pool, and the engine hands back each output it does not publish
// (Recycle). Only the built-ins' outputs may go back: they are fresh
// buffers, where another mechanism may return its input or a slice of
// it.

// maxPooledClass bounds a pooled buffer at 1<<maxPooledClass records.
const maxPooledClass = 20

var (
	// recordPools[k] holds boxed buffers of capacity at least 1<<k.
	recordPools [maxPooledClass + 1]sync.Pool
	// boxes holds empty boxes: moving a buffer in or out of a pool
	// allocates nothing.
	boxes sync.Pool
)

// records returns a buffer of n >= 1 records, from the pool when it
// holds one large enough. A new buffer gets the capacity of n's class,
// so that, recycled, it serves every length of that class.
func records(n int) []trace.Record {
	k := bits.Len(uint(n - 1)) // the least k with 1<<k >= n
	if k > maxPooledClass {
		return make([]trace.Record, n)
	}
	if b, ok := recordPools[k].Get().(*[]trace.Record); ok {
		recs := (*b)[:n]
		*b = nil
		boxes.Put(b)
		return recs
	}
	return make([]trace.Record, n, 1<<k)
}

// Pooled reports whether m is a built-in mechanism, whose outputs may be
// handed back with Recycle. It asks for the exact types: a wrapper, or a
// type that embeds a built-in, may return what it was given.
func Pooled(m Mechanism) bool {
	switch m.(type) {
	case GeoI, TRL, *HMC, *KAnon:
		return true
	}
	return false
}

// Recycle hands back recs, the records of an output of a Pooled
// mechanism that nothing reads any more. A buffer handed back twice, or
// while still in use, gets two owners.
func Recycle(recs []trace.Record) {
	k := bits.Len(uint(cap(recs))) - 1 // the greatest k with 1<<k <= cap
	if k < 0 || k > maxPooledClass {
		return
	}
	b, ok := boxes.Get().(*[]trace.Record)
	if !ok {
		b = new([]trace.Record)
	}
	*b = recs[:0]
	recordPools[k].Put(b)
}
