package service

import "iter"

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
	// m holds every live entry; only put and remove write it, keeping
	// the insertion order in step.
	m map[string]*retained[V]
	// oldest and newest are the ends of the insertion order, a doubly
	// linked list through the entries: a removed key leaves it with its
	// entry, so a key inserted again is as young as its new insert.
	oldest, newest *retained[V]
}

// retained is one entry of a retention table and its link in the
// insertion order.
type retained[V any] struct {
	key          string
	v            V
	older, newer *retained[V]
}

func newRetention[V any](capacity int, finished func(V) bool) retention[V] {
	return retention[V]{cap: capacity, finished: finished, m: make(map[string]*retained[V])}
}

// get returns the entry under k.
func (t *retention[V]) get(k string) (v V, ok bool) {
	if e, found := t.m[k]; found {
		return e.v, true
	}
	return v, false
}

// put inserts or overwrites the entry under k, then evicts. A new key is
// the youngest; an overwritten one keeps its age.
func (t *retention[V]) put(k string, v V) {
	if e, ok := t.m[k]; ok {
		e.v = v
	} else {
		e = &retained[V]{key: k, v: v, older: t.newest}
		if t.newest != nil {
			t.newest.newer = e
		} else {
			t.oldest = e
		}
		t.newest = e
		t.m[k] = e
	}
	t.evict()
}

// remove forgets k.
func (t *retention[V]) remove(k string) {
	if e, ok := t.m[k]; ok {
		t.drop(e)
	}
}

// drop unlinks e and deletes it from the map.
func (t *retention[V]) drop(e *retained[V]) {
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		t.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		t.newest = e.older
	}
	delete(t.m, e.key)
}

// all yields the live entries in insertion order.
func (t *retention[V]) all() iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for e := t.oldest; e != nil; e = e.newer {
			if !yield(e.key, e.v) {
				return
			}
		}
	}
}

// evict drops the finished entries inserted longest ago until the table
// is back within its capacity or no finished entry is left. It walks
// past the unfinished entries in front only, so an eviction costs
// O(1 + unfinished entries older than the one it drops).
func (t *retention[V]) evict() {
	for e := t.oldest; len(t.m) > t.cap && e != nil; e = e.newer {
		if t.finished(e.v) {
			t.drop(e)
		}
	}
}
