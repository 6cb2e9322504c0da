package main

// Example runs the Figure 1 scenario: GBSC overlaps the two leaves that
// never interleave.
func Example() {
	main()
	// Output:
	// default (link order)   miss rate 50.500%
	// GBSC (temporal)        miss rate 21.250%
	//
	// placement (procedure → start address → cache line):
	//   M  @     0  line   0
	//   X  @  6144  line  64
	//   Y  @ 10240  line  64
	//   Z  @   512  line  16
	//
	// X and Y map to overlapping lines (they never interleave in the
	// profile), while Z — which alternates with both — gets its own lines.
}
