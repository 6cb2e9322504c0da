package main

// Example places from the online TRGs and checks the placement equals
// the batch pipeline's.
func Example() {
	main()
	// Output:
	// instrumented run complete: 10010 activations observed, no trace file written
	// online placement identical to batch placement ✓
	// miss rate: default 21.741% → online-profiled GBSC 12.846%
}
