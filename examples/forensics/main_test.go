package main

// Example runs the program and pins every line it prints: the run is
// deterministic, so a change to the scores the façade and the solve
// path produce shows here.
func Example() {
	main()
	// Output:
	// candidates:
	//   ally-2       scaled PR  148.33  m~ 1.000
	//   ally-1       scaled PR  148.33  m~ 1.000
	//   solo-farm    scaled PR   35.00  m~ 1.000
	//   popular-site scaled PR   15.31  m~ 0.755
	//   core-hub     scaled PR   43.93  m~ 0.528
	//
	// forensics per candidate:
	//   ally-2        41 supporters analyzed, booster share 0.80
	//   ally-1        41 supporters analyzed, booster share 0.80
	//   solo-farm     33 supporters analyzed, booster share 0.80
	//   popular-site  25 supporters analyzed, booster share 0.00  <- supporters are reputable: exonerated
	//   core-hub      23 supporters analyzed, booster share 0.00  <- supporters are reputable: exonerated
	//
	// alliances (targets whose farms are linked):
	//   group of 2: ally-1 ally-2
	//
	// top supporters of solo-farm (scaled PR 35.00):
	//   node 85    contributes  0.850 ( 2.4% of the target's PageRank)
	//   node 86    contributes  0.850 ( 2.4% of the target's PageRank)
	//   node 87    contributes  0.850 ( 2.4% of the target's PageRank)
	//   node 88    contributes  0.850 ( 2.4% of the target's PageRank)
	//   node 89    contributes  0.850 ( 2.4% of the target's PageRank)
	// (every significant supporter is a single-purpose boosting host:
	//  the evidence an abuse team attaches to a takedown)
}
