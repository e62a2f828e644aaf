package main

// Example runs the program and pins every line it prints: the run is
// deterministic, so a change to the scores the façade and the solve
// path produce shows here.
func Example() {
	main()
	// Output:
	// generating a 60000-host synthetic web...
	// disk graph: web.smgr (0.2 MB for 127602 edges)
	// regular PageRank:    90 streaming iterations
	// core-based PageRank: 85 streaming iterations
	// detection over the disk-resident graph: 187 candidates, 90% spam-or-known-anomaly
	// max difference vs in-memory solver: 0.00e+00 (identical fixpoint)
}
