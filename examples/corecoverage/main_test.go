package main

// Example runs the program and pins every line it prints: the run is
// deterministic, so a change to the scores the façade and the solve
// path produce shows here.
func Example() {
	main()
	// Output:
	// generating a 100000-host synthetic web...
	//
	// detection at tau=0.9, rho=10 (precision counts known anomalies as hits):
	// full core          690 hosts   candidates   302   precision  95.0%
	// 10.0% core          69 hosts   candidates   338   precision  89.9%
	// 1.0% core            6 hosts   candidates   387   precision  85.0%
	// 0.1% core            1 hosts   candidates   447   precision  77.0%
	// .it edu core        12 hosts   candidates   352   precision  90.9%
	// random=|.it|        12 hosts   candidates   375   precision  87.5%
	//
	// the .it-only core covers one national web, so every host endorsed
	// only by the rest of the world looks spammy: breadth beats size.
}
