package main

// Example places the seven-procedure rotation from both cost models and
// scores both on the 2-way cache.
func Example() {
	main()
	// Output:
	// placement from the direct-mapped model          56 misses / 11200 refs = 0.500% on the 2-way cache
	// placement from the pair database (Sec. 6)       56 misses / 11200 refs = 0.500% on the 2-way cache
	//
	// set ranges of the hot procedures under the pair-database layout:
	//   a @     0 → sets  0.. 7
	//   b @  1024 → sets  0.. 7
	//   c @   256 → sets  8..15
	//   d @  1280 → sets  8..15
	//   e @   512 → sets 16..23
	//   f @  1536 → sets 16..23
	//   g @   768 → sets 24..31
	//
	// Seven procedures of 8 sets each fit 32 sets only by sharing; the
	// pair database proves two-per-set is free in a 2-way cache (no triple
	// of them ever appears between consecutive references), so both the
	// rotation and the capacity constraint are satisfied with cold misses
	// only.
}
