package main

// Example runs the program: tier-1 checks every line it prints.
func Example() {
	main()
	// Output:
	// dataset to publish: 6 users, 5428 records
	//
	// HybridLPPM: 1 orphan users, data loss 18.0%
	// MooD:       0 orphan users, data loss 0.0%
	//             1 users needed multi-LPPM composition, 0 fine-grained splitting
	//
	// published dataset: 6 traces, 5428 records
	// published pieces correctly re-identified (leaks): 0
}
