package main

import "os"

// Example compares the three algorithms on vortex at a twentieth of the
// paper's trace lengths, with three randomized profiles each.
func Example() {
	os.Args = []string{"compare", "-scale", "0.05", "-runs", "3"}
	main()
	// Output:
	// benchmark vortex: 3 randomized profiles per algorithm (s=0.1)
	//
	// unperturbed profiles:
	//   GBSC  1.061% ← best
	//   HKC   1.506%
	//   PH    2.486%
	//
	// miss-rate distribution over randomized profiles (min / median / max):
	//   PH    1.913% / 2.274% / 2.559%
	//   HKC   1.528% / 1.706% / 1.875%
	//   GBSC  1.792% / 2.066% / 2.353%
	//
	// ASCII CDF (x = miss rate, each row one algorithm; '*' marks runs):
	//   PH    |                       *                      *                 *|
	//   HKC   |*          *         *                                           |
	//   GBSC  |                *                *                 *             |
	//          1.528%                                                        2.559%
}
