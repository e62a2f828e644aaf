package main

// Example runs the program and pins every line it prints: the run is
// deterministic, so a change to the scores the façade and the solve
// path produce shows here.
func Example() {
	main()
	// Output:
	// t0: generating a 60000-host web...
	// t0: black list of 133 confirmed spam hosts; good core of 414 hosts
	//
	// t1 (one spam generation later):
	//   black list still pointing at live spam: 0 of 133 (0%)
	//   good core still good:                   414 of 414 (100%)
	//   aged-core detection of the NEW farms:   recall 0.88 (t0 was 0.70)
	//   stale-black-list detection of new farms: recall 0.00
	//
	// the asymmetry is Section 3.4's argument for building the method on a good core
}
