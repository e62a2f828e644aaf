package main

// Example runs the program and pins every line it prints: the run is
// deterministic, so a change to the scores the façade and the solve
// path produce shows here.
func Example() {
	main()
	// Output:
	// farm target signatures (higher PR = more successful spam,
	// relative mass near 1 = PageRank manufactured by the farm):
	// star, 10 boosters      scaled PR     9.50   relative mass  1.000
	// star, 100 boosters     scaled PR    86.00   relative mass  1.000
	// ring, 50 boosters      scaled PR    37.96   relative mass  1.000
	// alliance member 1      scaled PR   176.67   relative mass  1.000
	// alliance member 2      scaled PR   176.67   relative mass  1.000
	// honey pot, 30+stray    scaled PR    30.51   relative mass  0.869
	// reputable hub          scaled PR    50.42   relative mass  0.000
	//
	// candidates at tau=0.9, rho=5:
	//   node 184 (scaled PR 176.67, rel. mass 1.000)
	//   node 215 (scaled PR 176.67, rel. mass 1.000)
	//   node 32 (scaled PR 86.00, rel. mass 1.000)
	//   node 133 (scaled PR 37.96, rel. mass 1.000)
	//   node 21 (scaled PR 9.50, rel. mass 1.000)
	//
	// Figure 1 closed form: spam contribution (c + kc^2) vs good (2c):
	//   k=1: spam 1.572 vs good 1.700 -> spam dominates: false
	//   k=2: spam 2.295 vs good 1.700 -> spam dominates: true
	//   k=3: spam 3.018 vs good 1.700 -> spam dominates: true
}
