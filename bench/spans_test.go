package main

import (
	"math"
	"testing"
)

// A scatter-gather parent waits for its children in parallel: they cost
// it the union of their intervals — the slowest of them when they start
// together — not their sum.
func TestSelfTimeWithParallelChildren(t *testing.T) {
	spans := []span{
		{Layer: layerRouter, Op: 1, Parent: noSpan, Start: 0, End: 100},
		{Layer: layerNode, Op: 1, Parent: 0, Start: 10, End: 60},
		{Layer: layerNode, Op: 1, Parent: 0, Start: 10, End: 90},
		{Layer: layerNode, Op: 1, Parent: 0, Start: 20, End: 40},
	}
	self := selfTimes(spans, childIntervals(spans))
	if self[0] != 20 {
		t.Errorf("parent self time %d, want 20 (100 minus the slowest child's 80, not minus the sum 150)", self[0])
	}
	for i, want := range []int64{50, 80, 20} {
		if self[i+1] != want {
			t.Errorf("child %d self time %d, want %d", i, self[i+1], want)
		}
	}
}

func TestSelfTimeClipsAndMergesChildren(t *testing.T) {
	spans := []span{
		{Layer: layerNode, Op: 1, Parent: noSpan, Start: 100, End: 200},
		{Layer: layerProtect, Op: 1, Parent: 0, Start: 90, End: 120},  // starts before the parent
		{Layer: layerProtect, Op: 1, Parent: 0, Start: 110, End: 130}, // overlaps the first
		{Layer: layerProtect, Op: 1, Parent: 0, Start: 150, End: 160}, // disjoint
		{Layer: layerProtect, Op: 1, Parent: 0, Start: 190, End: 250}, // ends after the parent
	}
	if got := selfTimes(spans, childIntervals(spans))[0]; got != 50 {
		t.Errorf("self time %d, want 50: [130,150) + [160,190)", got)
	}
}

// One op's layers always sum to its wall time: sequential work is booked
// whole, parallel work is split among the spans running.
func TestAccountBooksEveryNanosecondOnce(t *testing.T) {
	spans := []span{
		{Layer: layerClientOp, Op: 7, Parent: noSpan, Start: 0, End: 1000},
		{Layer: layerClientHTTP, Op: 7, Parent: 0, Start: 50, End: 950},
		{Layer: layerRouter, Op: 7, Parent: 1, Start: 100, End: 900},
		// The router scatters to three nodes at once.
		{Layer: layerRouterHTTP, Op: 7, Parent: 2, Start: 200, End: 800},
		{Layer: layerRouterHTTP, Op: 7, Parent: 2, Start: 200, End: 600},
		{Layer: layerRouterHTTP, Op: 7, Parent: 2, Start: 200, End: 400},
		{Layer: layerNode, Op: 7, Parent: 3, Start: 200, End: 800},
		{Layer: layerNode, Op: 7, Parent: 4, Start: 200, End: 600},
		{Layer: layerNode, Op: 7, Parent: 5, Start: 200, End: 400},
		// An aggregate-only span and a span of no op are not the op's.
		{Layer: layerAppend, Op: 0, Parent: noSpan, Start: 300, End: 350},
	}
	acc := account(spans, childIntervals(spans))
	if acc.ops != 1 || acc.wallNs != 1000 || acc.orphanNs != 0 {
		t.Fatalf("ops %d, wall %d, orphan %d; want 1, 1000, 0", acc.ops, acc.wallNs, acc.orphanNs)
	}
	var sum float64
	for _, ns := range acc.attributed {
		sum += ns
	}
	if math.Abs(sum-1000) > 1e-6 {
		t.Errorf("layers sum to %v ns of a 1000 ns op", sum)
	}
	want := map[layerID]float64{
		layerClientOp:   100, // [0,50) + [950,1000)
		layerClientHTTP: 100, // [50,100) + [900,950)
		layerRouter:     200, // [100,200) + [800,900)
		layerNode:       600, // [200,800): three, then two, then one node at work
		layerRouterHTTP: 0,   // each exchange is covered by its node span
	}
	for l, w := range want {
		if math.Abs(acc.attributed[l]-w) > 1e-6 {
			t.Errorf("%s: %v ns, want %v", l, acc.attributed[l], w)
		}
	}
	if got := acc.unattributedShare(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("unattributed share %v, want 0.1 (the client's exchange)", got)
	}
}

func TestAccountCountsOrphans(t *testing.T) {
	spans := []span{
		{Layer: layerClientOp, Op: 1, Parent: noSpan, Start: 0, End: 100},
		{Layer: layerProtect, Op: 1, Parent: noSpan, Start: 10, End: 40}, // link lost
	}
	acc := account(spans, childIntervals(spans))
	if acc.orphanNs != 30 {
		t.Errorf("orphan time %d, want 30", acc.orphanNs)
	}
	if got := acc.unattributedShare(); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("unattributed share %v, want 0.3", got)
	}
}

func TestStoreInsideNodes(t *testing.T) {
	spans := []span{
		{Layer: layerNode, Detail: 1, Op: 1, Parent: noSpan, Start: 0, End: 100},
		{Layer: layerProtect, Op: 1, Parent: 0, Start: 10, End: 50},
		{Layer: layerAppend, Detail: 1, Parent: noSpan, Start: 40, End: 70}, // 20 of it beside the handler's own time
		{Layer: layerAppend, Detail: 1, Parent: noSpan, Start: 60, End: 80}, // overlaps the first: the union counts
		{Layer: layerAppend, Detail: 2, Parent: noSpan, Start: 0, End: 100}, // another node's store
	}
	if got := storeInsideNodes(spans, childIntervals(spans)); got != 30 {
		t.Errorf("store time inside the handler %d, want 30: [50,80)", got)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	op, id, ok := parseSpanHeader(formatSpanHeader(42, 1234))
	if !ok || op != 42 || id != 1234 {
		t.Errorf("round trip gave %d, %d, %v", op, id, ok)
	}
	for _, bad := range []string{"", "42", "0.5", "x.1", "1.x"} {
		if _, _, ok := parseSpanHeader(bad); ok {
			t.Errorf("parseSpanHeader(%q) accepted", bad)
		}
	}
}
