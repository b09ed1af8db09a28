package main

// Example runs the program: tier-1 checks every line it prints.
func Example() {
	main()
	// Output:
	// victim: privamov-u007 (944 background records, 966 fresh records)
	//
	// POI profile (3 places, 200 m clusters, 1 h dwell):
	//   #1 (45.8030573,4.8351305) — 356 records, 29h8m0s dwelled
	//   #2 (45.7346982,4.8385648) — 273 records, 48h22m0s dwelled
	//   #3 (45.8178903,4.8409821) — 99 records, 7h44m0s dwelled
	//
	// MMC profile (3 states):
	//   state 0: stationary 0.14, transitions [0.00 0.00 1.00]
	//   state 1: stationary 0.49, transitions [1.00 0.00 0.00]
	//   state 2: stationary 0.38, transitions [0.00 1.00 0.00]
	//
	// heatmap profile (800 m cells): 13 cells, top cells:
	//   #1 cell 1:3 — 320 records (34%)
	//   #2 cell 1:-6 — 285 records (30%)
	//   #3 cell 1:5 — 111 records (12%)
	//
	// re-identifying the fresh trace:
	//   AP   -> privamov-u007  (score 0.113, correct=true)
	//   POI  -> privamov-u007  (score 193.935, correct=true)
	//   PIT  -> privamov-u007  (score 1.350, correct=true)
	//
	// after Geo-I (eps=0.01, ~200 m noise):
	//   AP   -> privamov-u007  (score 0.233, correct=true)
	//   POI  -> privamov-u007  (score 199.519, correct=true)
	//   PIT  -> privamov-u000  (score 0.805, correct=false)
}
