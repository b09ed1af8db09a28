package service

import (
	"iter"
	"slices"
)

// retention is the bounded table under both the idempotency window and
// the job store: a map whose keys keep the order they were inserted in.
// Above cap entries it evicts the oldest entries that finished reports
// done; unfinished ones are never evicted, so the table exceeds cap
// while they are in flight (their number is bounded by the upload
// pipeline). It has no lock of its own: the store's mutex guards it,
// and with it the entry fields that finished reads.
type retention[V any] struct {
	cap      int
	finished func(V) bool
	// m is read directly; only put and remove write it, keeping order
	// in step.
	m map[string]V
	// order holds each live key once, in insertion order: a removed key
	// leaves order with its entry, so a key inserted again is as young
	// as its new insert. Eviction blanks a key ("" is never a key)
	// instead of closing the gap; head skips the blanks in front, and
	// the slice is compacted once dead blanks fill half of it, so an
	// eviction costs O(1) amortised.
	order      []string
	head, dead int
}

func newRetention[V any](capacity int, finished func(V) bool) retention[V] {
	return retention[V]{cap: capacity, finished: finished, m: make(map[string]V)}
}

// put inserts or overwrites the entry under k, then evicts. A new key is
// the youngest; an overwritten one keeps its age.
func (t *retention[V]) put(k string, v V) {
	if _, ok := t.m[k]; !ok {
		t.order = append(t.order, k)
	}
	t.m[k] = v
	t.evict()
}

// remove forgets k. Stores remove entries they inserted moments ago (a
// failed upload, a refused job), so the scan runs from the newest key.
func (t *retention[V]) remove(k string) {
	if _, ok := t.m[k]; !ok {
		return
	}
	delete(t.m, k)
	for i := len(t.order) - 1; i >= t.head; i-- {
		if t.order[i] == k {
			t.order = slices.Delete(t.order, i, i+1)
			return
		}
	}
}

// all yields the live entries in insertion order.
func (t *retention[V]) all() iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for _, k := range t.order[t.head:] {
			if k != "" && !yield(k, t.m[k]) {
				return
			}
		}
	}
}

// evict drops the finished entries inserted longest ago until the table
// is back within its capacity or no finished entry is left.
func (t *retention[V]) evict() {
	for i := t.head; len(t.m) > t.cap && i < len(t.order); i++ {
		if k := t.order[i]; k != "" && t.finished(t.m[k]) {
			delete(t.m, k)
			t.order[i] = ""
			t.dead++
		}
	}
	for t.head < len(t.order) && t.order[t.head] == "" {
		t.head++
	}
	if 2*t.dead > len(t.order) {
		t.order = slices.DeleteFunc(t.order, func(k string) bool { return k == "" })
		t.head, t.dead = 0, 0
	}
}
