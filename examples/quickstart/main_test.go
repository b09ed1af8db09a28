package main

// Example runs the program: tier-1 checks every line it prints.
func Example() {
	main()
	// Output:
	// pipeline ready: attacks=[AP POI PIT], 3 mechanisms
	//
	// raw trace of mdc-u000: 731 records, re-identified=true (AP)
	//
	// MooD outcome for mdc-u000:
	//   fully protected:   true
	//   needed composition: false, fine-grained: false
	//   records published: 731 / 731
	//   piece 1: as "mdc-u000" via HMC, STD 3829 m, 731 records
	//
	// all published pieces resist every trained attack ✓
}
