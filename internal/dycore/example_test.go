package dycore_test

import (
	"fmt"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
)

// Example runs the communication-avoiding dynamical core for two steps on a
// small mesh and prints the communication structure of Algorithm 2: two
// halo-exchange rounds and 2M vertical collectives per step.
func Example() {
	g := grid.New(32, 16, 6)
	cfg := dycore.DefaultConfig() // M = 3
	cfg.Dt1, cfg.Dt2 = 30, 180

	setup := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}
	res := dycore.Run(setup, g, comm.Zero(), heldsuarez.InitialState, 2)

	c := res.Count
	perStepEx := (c.HaloExchanges - 2) / int64(c.Steps) // minus bootstrap + finalize
	perStepC := (c.CEvaluations - 1) / int64(c.Steps)   // minus bootstrap
	fmt.Printf("exchange rounds per step: %d\n", perStepEx)
	fmt.Printf("z-collectives per step: %d (= 2M)\n", perStepC)
	fmt.Printf("stable: %v\n", res.Finals[0].AllFinite())
	// Output:
	// exchange rounds per step: 2
	// z-collectives per step: 6 (= 2M)
	// stable: true
}

// ExampleRun_comparison runs the original and the communication-avoiding
// algorithms on the same configuration and compares their per-step exchange
// counts (the paper's 13 → 2 for M = 3).
func ExampleRun_comparison() {
	g := grid.New(32, 16, 6)
	cfg := dycore.DefaultConfig()
	cfg.Dt1, cfg.Dt2 = 30, 180

	yz := dycore.Run(dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg},
		g, comm.Zero(), heldsuarez.InitialState, 1)
	ca := dycore.Run(dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg},
		g, comm.Zero(), heldsuarez.InitialState, 1)

	fmt.Printf("original-YZ exchanges/step: %d\n", yz.Count.HaloExchanges-1)
	fmt.Printf("comm-avoiding exchanges/step: %d\n", ca.Count.HaloExchanges-2)
	// Output:
	// original-YZ exchanges/step: 13
	// comm-avoiding exchanges/step: 2
}
