package main

// Example runs the program and pins every line it prints: the run is
// deterministic, so a change to the scores the façade and the solve
// path produce shows here.
func Example() {
	main()
	// Output:
	// scaled PageRank (node: score):
	//    0:   2.46
	//    1:   1.70
	//    2:   1.72
	//    3:  10.20
	//    4:   2.42
	//
	// relative spam mass:
	//    0:   0.00
	//    1:   0.00
	//    2:   0.00
	//    3:   0.93
	//    4:   0.41
	//    5:   1.00
	//    6:   1.00
	//    7:   1.00
	//    8:   1.00
	//    9:   1.00
	//   10:   1.00
	//   11:   1.00
	//   12:   1.00
	//   13:   1.00
	//   14:   1.00
	// (node 4's nonzero mass is the paper's Section 3.5 effect in miniature:
	//  its own random jump lies outside the 3-node core, so the unscaled
	//  estimate overstates its mass — harmlessly below the threshold here)
	//
	// spam candidates:
	//   node 3 (scaled PR 10.20, rel. mass 0.932)
}
