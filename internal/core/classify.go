package core

import "fmt"

// Classification buckets users by the paper's protection taxonomy
// (Definitions 4-6 plus the fine-grained stage of §3.4).
type Classification struct {
	// Single counts users protected by one LPPM (Def. 5).
	Single int
	// Multi counts users protected only by a composition (Def. 6) —
	// the orphan users of Def. 4 that composition search cured.
	Multi int
	// FineGrained counts users that needed trace splitting and came out
	// fully protected.
	FineGrained int
	// Partial counts users that kept some records but lost others in
	// the fine-grained stage.
	Partial int
	// Unprotected counts users with no published data at all.
	Unprotected int
}

// String summarises the classification.
func (c Classification) String() string {
	return fmt.Sprintf("single=%d multi=%d fine-grained=%d partial=%d unprotected=%d",
		c.Single, c.Multi, c.FineGrained, c.Partial, c.Unprotected)
}

// Classify buckets a batch of MooD results.
func Classify(results []Result) Classification {
	var c Classification
	for _, r := range results {
		switch {
		case len(r.Pieces) == 0:
			c.Unprotected++
		case r.LostRecords > 0:
			c.Partial++
		case r.UsedFineGrained:
			c.FineGrained++
		case r.UsedComposition:
			c.Multi++
		default:
			c.Single++
		}
	}
	return c
}
