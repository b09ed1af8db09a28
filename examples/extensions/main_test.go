package main

// Example runs the program: tier-1 checks every line it prints.
func Example() {
	main()
	// Output:
	// baseline portfolio: 3 mechanisms; extended: 4 mechanisms
	//
	// baseline (HMC+GeoI+TRL, brute, STD):
	//   classification: single=11 multi=0 fine-grained=0 partial=0 unprotected=0
	//   data loss:      0.00%
	//   judged:         26 candidates
	//   attack calls:   78
	//   mean coverage:  0.50
	//
	// extended (+KAnon, greedy, coverage):
	//   classification: single=11 multi=0 fine-grained=0 partial=0 unprotected=0
	//   data loss:      0.00%
	//   judged:         26 candidates
	//   attack calls:   78
	//   mean coverage:  0.51
}
