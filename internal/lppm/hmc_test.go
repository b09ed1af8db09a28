package lppm

import (
	"strings"
	"testing"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/trace"
)

// clustered builds a trace dwelling around center, n records one minute
// apart with small in-place motion.
func clustered(user string, center geo.Point, n int) trace.Trace {
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.At(geo.Offset(center, float64(i%5)*20, float64(i%3)*20), int64(i*60))
	}
	return trace.New(user, rs)
}

// twoPlace builds a trace alternating between two places.
func twoPlace(user string, a, b geo.Point, n int) trace.Trace {
	rs := make([]trace.Record, n)
	for i := range rs {
		p := a
		if (i/20)%2 == 1 {
			p = b
		}
		rs[i] = trace.At(geo.Offset(p, float64(i%4)*15, 0), int64(i*60))
	}
	return trace.New(user, rs)
}

func hmcBackground() []trace.Trace {
	return []trace.Trace{
		twoPlace("alice", origin, geo.Offset(origin, 4000, 0), 200),
		twoPlace("bob", geo.Offset(origin, 0, 6000), geo.Offset(origin, 5000, 6000), 200),
		clustered("carol", geo.Offset(origin, -7000, -2000), 200),
	}
}

func TestNewHMCValidation(t *testing.T) {
	if _, err := NewHMC(800, nil); err == nil {
		t.Fatal("no background must error")
	}
	if _, err := NewHMC(800, []trace.Trace{clustered("only", origin, 10)}); err == nil {
		t.Fatal("single background user must error")
	}
	if _, err := NewHMC(800, []trace.Trace{{User: "a"}, {User: "b"}}); err == nil {
		t.Fatal("empty background traces must error")
	}
}

func TestHMCPreservesTimestampsAndCount(t *testing.T) {
	h, err := NewHMC(800, hmcBackground())
	if err != nil {
		t.Fatal(err)
	}
	in := twoPlace("alice", origin, geo.Offset(origin, 4000, 0), 150)
	out, err := h.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("record count changed: %d -> %d", in.Len(), out.Len())
	}
	for i := range in.Records {
		if out.Records[i].TS != in.Records[i].TS {
			t.Fatal("HMC must keep the temporal rhythm")
		}
	}
}

func TestHMCMovesHeatmapTowardTarget(t *testing.T) {
	h, err := NewHMC(800, hmcBackground())
	if err != nil {
		t.Fatal(err)
	}
	// Alice's fresh trace resembles her background; after HMC its
	// heatmap must be closer to the imitated target's profile than to
	// alice's own.
	in := twoPlace("alice", geo.Offset(origin, 100, 0), geo.Offset(origin, 4100, 0), 150)
	src := heatmap.FrozenFromTrace(h.grid, in)
	target := h.pickTarget(in.User, src, src.Quantize())
	if target == nil {
		t.Fatal("no target")
	}
	targetUser := target.user
	if targetUser == "alice" {
		t.Fatal("target must be another user")
	}
	out, err := h.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}

	grid := h.grid
	outHM := heatmap.FrozenFromTrace(grid, out)
	var aliceHM, targetHM *heatmap.Frozen
	for _, bt := range hmcBackground() {
		hm := heatmap.FrozenFromTrace(grid, bt)
		switch bt.User {
		case "alice":
			aliceHM = hm
		case targetUser:
			targetHM = hm
		}
	}
	dTarget := outHM.Topsoe(targetHM)
	dSelf := outHM.Topsoe(aliceHM)
	if dTarget >= dSelf {
		t.Fatalf("obfuscated heatmap closer to self (%v) than to target (%v)", dSelf, dTarget)
	}
}

func TestHMCDeterministic(t *testing.T) {
	h, err := NewHMC(800, hmcBackground())
	if err != nil {
		t.Fatal(err)
	}
	in := clustered("carol", geo.Offset(origin, -7000, -2000), 100)
	a, err := h.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("HMC must be deterministic")
		}
	}
}

func TestHMCUnknownUserStillWorks(t *testing.T) {
	// A user absent from the background gets the most similar profile.
	h, err := NewHMC(800, hmcBackground())
	if err != nil {
		t.Fatal(err)
	}
	in := clustered("mallory", geo.Offset(origin, 2000, 2000), 80)
	out, err := h.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatal("record count changed")
	}
}

func TestHMCEmptyTrace(t *testing.T) {
	h, err := NewHMC(800, hmcBackground())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Obfuscate(rng(), trace.Trace{}); err == nil {
		t.Fatal("empty trace must error")
	}
}

// TestHMCUsers: the imitation pool is the background's users, in
// background order.
func TestHMCUsers(t *testing.T) {
	h, err := NewHMC(800, hmcBackground())
	if err != nil {
		t.Fatal(err)
	}
	var users []string
	for _, p := range h.profiles {
		users = append(users, p.user)
	}
	if strings.Join(users, ",") != "alice,bob,carol" {
		t.Fatalf("users = %v", users)
	}
}

func TestHMCDefaultCellSize(t *testing.T) {
	h, err := NewHMC(0, hmcBackground())
	if err != nil {
		t.Fatal(err)
	}
	if d := h.grid.CellDistance(geo.Cell{}, geo.Cell{X: 1}); d != heatmap.DefaultCellSize {
		t.Fatalf("cell size = %v, want %v", d, heatmap.DefaultCellSize)
	}
}
