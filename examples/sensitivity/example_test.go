package main

import "os"

// Example pads perl's GBSC layout at a twentieth of the paper's trace
// lengths.
func Example() {
	os.Args = []string{"sensitivity", "-scale", "0.05"}
	main()
	// Output:
	// perl, 8KB direct-mapped cache, GBSC layout: 2.429% miss rate
	//
	// pad every procedure by N bytes and re-simulate the SAME layout:
	//   pad    miss rate   vs base
	//     32B    4.026%    +65.8%
	//     64B    4.657%    +91.8%
	//     96B    6.808%   +180.3%
	//    128B    4.890%   +101.4%
	//    160B    4.876%   +100.8%
	//    192B    4.021%    +65.6%
	//    224B    5.219%   +114.9%
	//    256B    6.798%   +179.9%
	//
	// A one-line pad is a trivial layout edit, yet the miss rate moves
	// by double-digit percentages — the paper's argument for evaluating
	// placement algorithms over distributions of randomized profiles
	// rather than single runs.
}
