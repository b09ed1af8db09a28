package mood

import (
	"reflect"
	"testing"

	"mood/internal/attack"
	"mood/internal/lppm"
)

// frozenOf reads the per-user heatmap pointers of an AP-attack or HMC
// (their unexported profiles[i].frozen).
func frozenOf(view any) []uintptr {
	ps := reflect.ValueOf(view).Elem().FieldByName("profiles")
	out := make([]uintptr, ps.Len())
	for i := range out {
		out[i] = ps.Index(i).FieldByName("frozen").Pointer()
	}
	return out
}

// TestPipelineSharesProfiles: a pipeline profiles its background once.
// The AP-attack and HMC read each user's heatmap from the same
// *heatmap.Frozen on the same grid, instead of freezing it twice.
func TestPipelineSharesProfiles(t *testing.T) {
	d, err := GenerateDataset("mdc", "tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := SplitTrainTest(d, 0.5, 20)
	p, err := NewPipeline(train.Traces, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ap, hmc := p.atks[0].(*attack.AP), p.lppms[0].(*lppm.HMC)
	if reflect.ValueOf(ap.Grid()).Pointer() != reflect.ValueOf(hmc).Elem().FieldByName("grid").Pointer() {
		t.Fatal("AP and HMC anchored separate grids")
	}
	apF, hmcF := frozenOf(ap), frozenOf(hmc)
	if len(apF) < 2 || len(apF) != len(hmcF) {
		t.Fatalf("AP has %d profiles, HMC %d", len(apF), len(hmcF))
	}
	for i := range apF {
		if apF[i] != hmcF[i] {
			t.Fatalf("user %d: AP and HMC hold separate heatmaps", i)
		}
	}
}

// TestTrainingErrorsUnchanged pins the training errors callers see: an
// empty background, a background without records, and fewer than two
// HMC users.
func TestTrainingErrorsUnchanged(t *testing.T) {
	rec := []Record{{Lat: 45.76, Lon: 4.84}}
	for _, tc := range []struct {
		bg   []Trace
		want string
	}{
		{nil, "mood: empty background knowledge"},
		{[]Trace{{User: "a"}, {User: "b"}}, "mood: building HMC: lppm: HMC background has no records"},
		{[]Trace{{User: "a", Records: rec}, {User: "b"}}, "mood: building HMC: lppm: HMC needs at least two background users, got 1"},
	} {
		if _, err := NewPipeline(tc.bg); err == nil || err.Error() != tc.want {
			t.Errorf("NewPipeline(%v): %v, want %q", tc.bg, err, tc.want)
		}
	}
	for _, tc := range []struct {
		set  attack.Set
		want string
	}{
		{attack.Set{attack.NewAP()}, "attack: training AP: attack: AP background has no records"},
		{attack.Set{attack.NewPOIAttack()}, "attack: training POI: attack: POI training needs background traces"},
		{attack.Set{attack.NewPIT()}, "attack: training PIT: attack: PIT training needs background traces"},
	} {
		if err := attack.TrainAll(tc.set, nil); err == nil || err.Error() != tc.want {
			t.Errorf("TrainAll(%v, nil): %v, want %q", tc.set.Names(), err, tc.want)
		}
	}
}
