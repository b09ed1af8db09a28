package lppm_test

import (
	"fmt"

	"mood/internal/lppm"
)

// Chains apply mechanisms as function composition, first to last.
func ExampleChain_Name() {
	chain := lppm.Chain{Mechs: []lppm.Mechanism{lppm.Identity{}, lppm.NewGeoI(), lppm.NewTRL()}}
	fmt.Println(chain.Name())
	fmt.Println(chain.Len())
	// Output:
	// none→GeoI→TRL
	// 3
}
