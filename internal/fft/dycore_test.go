package fft_test

import (
	"math"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fft"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// TestDycoreSeesOnlyRoundoff is the case beside dycore's
// TestAlgorithmsAgreeOnHeldSuarez that swaps the transform instead of the
// scheme: six Held–Suarez steps of the serial Y-Z baseline on the benchmark
// mesh, once on the plans NewRealPlan picks and once with every plan the
// polar filter builds forced onto the Bluestein reference, must agree to
// roundoff. A wrong twiddle or butterfly would show as an O(1) difference
// within a step. (It lives here because only this package's tests can force
// the reference path.)
func TestDycoreSeesOnlyRoundoff(t *testing.T) {
	g := grid.New(96, 48, 12)
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 1, PB: 1, Cfg: dycore.DefaultConfig()}
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, set.Cfg.Dt2) }
	run := func() []float64 {
		res := dycore.RunWithHook(set, g, comm.Zero(), heldsuarez.InitialState, 6, hook)
		return dycore.FlattenState(g, res.Finals)
	}

	staged := run()
	fft.UseBluesteinOnly(t)
	reference := run()

	scale, diff := 0.0, 0.0
	for i, v := range staged {
		scale = math.Max(scale, math.Abs(v))
		diff = math.Max(diff, math.Abs(v-reference[i]))
	}
	if tol := 1e-11 * (1 + scale); diff > tol || math.IsNaN(diff) {
		t.Errorf("staged vs Bluestein filter: max |Δξ| = %g > %g (max |ξ| = %g)", diff, tol, scale)
	}
	if diff == 0 {
		t.Error("bitwise-equal runs: the reference path was not forced")
	}
}
