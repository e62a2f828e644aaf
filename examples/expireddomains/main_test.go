package main

// Example runs the program and pins every line it prints: the run is
// deterministic, so a change to the scores the façade and the solve
// path produce shows here.
func Example() {
	main()
	// Output:
	// white-list estimate (good core only):
	//   expired domain: scaled PR  17.08, relative mass  0.059  <- invisible
	//   farm target:    scaled PR  36.77, relative mass  0.628
	//
	// white-list detection flags: farm-target
	//
	// black-list estimate from 2 known boosters:
	//   expired domain: black relative mass  0.000
	//   farm target:    black relative mass  0.239
	//
	// plain average (M~+M^)/2 on the farm target: 0.434 (diluted below the 0.5 threshold)
	//
	// feeder sweep: hosts with notable PageRank pointing at flagged hosts:
	//   node 42 feeds flagged node 43  <- the expired domain, caught
}
