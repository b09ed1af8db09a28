package metrics_test

import (
	"fmt"

	"mood/internal/metrics"
)

// Distortion bands of the paper's Figure 9.
func ExampleBandOf() {
	for _, std := range []float64{120, 750, 3200, 9000} {
		fmt.Println(metrics.BandOf(std))
	}
	// Output:
	// <500m
	// <1000m
	// <5000m
	// >=5000m
}
