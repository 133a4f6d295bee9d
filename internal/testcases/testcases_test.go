package testcases

import (
	"math"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

func run(t *testing.T, g *grid.Grid, init InitFunc, steps int, dt1, dt2 float64) dycore.RunResult {
	t.Helper()
	cfg := dycore.DefaultConfig()
	cfg.Dt1, cfg.Dt2 = dt1, dt2
	set := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}
	return dycore.Run(set, g, comm.Zero(), dycore.InitFunc(init), steps)
}

func TestRestingIsothermalStaysNearlyAtRest(t *testing.T) {
	g := grid.New(32, 16, 6)
	res := run(t, g, RestingIsothermal(270), 3, 40, 240)
	// Rung 1 of the test-case ladder: the resting isothermal state is a
	// discrete fixed point, so the winds stay at round-off (1e-18 measured)
	// rather than merely small.
	maxU := 0.0
	for _, st := range res.Finals {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					if v := math.Abs(st.U.At(i, j, k)); v > maxU {
						maxU = v
					}
				}
			}
		}
	}
	if maxU > 1e-12 {
		t.Errorf("resting atmosphere spun up to %v m/s·P in 3 steps", maxU)
	}
}

func TestSolidBodyPreservesZonalSymmetry(t *testing.T) {
	// Every operator of the dynamical core commutes with rotations in λ, so
	// a zonally symmetric state must stay zonally symmetric to round-off.
	g := grid.New(32, 16, 6)
	res := run(t, g, SolidBodyRotation(15, 280), 3, 40, 240)
	for _, st := range res.Finals {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				ref := st.Phi.At(b.I0, j, k)
				scale := 1 + math.Abs(ref)
				for i := b.I0; i < b.I1; i++ {
					if d := math.Abs(st.Phi.At(i, j, k) - ref); d > 1e-9*scale {
						t.Fatalf("zonal symmetry broken at (%d,%d,%d): %g", i, j, k, d)
					}
				}
			}
		}
	}
}

func TestGravityWavePropagatesAtCharacteristicSpeed(t *testing.T) {
	// A compact Φ pulse must radiate outward with phase speed near
	// b = 87.8 m/s (the tensor transform's design constant). Track the
	// westward/eastward front of the surface-pressure disturbance.
	g := grid.New(96, 24, 6)
	lam0 := math.Pi
	init := GravityWavePulse(8, 0.22, lam0)

	cfg := dycore.DefaultConfig()
	cfg.Dt1, cfg.Dt2 = 50, 300
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}

	// The front must travel several grid points to be measurable: at
	// b ≈ 88 m/s one zonal grid cell (417 km at the equator) takes ~16
	// steps of 300 s. Track the farthest point whose |p'_sa| exceeds a
	// fixed fraction of the current maximum (amplitude-relative, so the
	// linear growth of the response does not masquerade as propagation).
	frontAfter := func(steps int) float64 {
		res := dycore.Run(set, g, comm.Zero(), dycore.InitFunc(init), steps)
		st := res.Finals[0]
		jEq := g.Ny / 2
		maxA := 0.0
		for i := 0; i < g.Nx; i++ {
			if v := math.Abs(st.Psa.At(i, jEq)); v > maxA {
				maxA = v
			}
		}
		far := 0.0
		for i := 0; i < g.Nx; i++ {
			if math.Abs(st.Psa.At(i, jEq)) > 0.2*maxA {
				if d := math.Abs(angularDistance(g.Lambda[i], lam0)); d > far {
					far = d
				}
			}
		}
		return far * physics.EarthRadius * g.SinC[jEq] // meters along the equator row
	}

	d1 := frontAfter(20)
	d2 := frontAfter(80)
	dt := 60 * cfg.Dt2 // seconds between the two measurements
	speed := (d2 - d1) / dt
	if speed < 0.3*physics.B || speed > 3*physics.B {
		t.Errorf("gravity-wave front speed %v m/s, expected near b = %v m/s (front %v -> %v m)",
			speed, physics.B, d1, d2)
	}
}

func TestRandomNoiseDeterministicAcrossDecompositions(t *testing.T) {
	g := grid.New(16, 10, 4)
	init := RandomNoise(42, 1, 2, 50)
	mk := func(py, pz int) []*state.State {
		cfg := dycore.DefaultConfig()
		cfg.Dt1, cfg.Dt2 = 30, 180
		set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: py, PB: pz, Cfg: cfg}
		res := dycore.Run(set, g, comm.Zero(), dycore.InitFunc(init), 0)
		return res.Finals
	}
	a := mk(1, 1)
	b := mk(2, 2)
	if d := dycore.MaxDiffGlobal(g, a, b); d != 0 {
		t.Errorf("random initial condition not decomposition-invariant: %g", d)
	}
}

func TestAllCasesFiniteAndStable(t *testing.T) {
	g := grid.New(32, 16, 6)
	// A fixed case order keeps the simulated-communication schedule identical
	// across runs (map iteration order would randomize it).
	cases := []struct {
		name string
		init InitFunc
	}{
		{"resting", RestingIsothermal(260)},
		{"solidbody", SolidBodyRotation(25, 280)},
		{"pulse", GravityWavePulse(5, 0.3, 1.0)},
		{"jet", ZonalJetWithWaves(25, 4)},
		{"noise", RandomNoise(7, 0.5, 1, 30)},
	}
	for _, tc := range cases {
		res := run(t, g, tc.init, 3, 40, 240)
		for _, st := range res.Finals {
			if !st.AllFinite() {
				t.Errorf("case %q went non-finite", tc.name)
			}
		}
	}
}

func TestBalancedJetIsNearFixedPoint(t *testing.T) {
	// The discretely balanced jet must stay essentially steady: V remains
	// tiny and U drifts < 1% over many steps (only the Φ smoothing
	// perturbs the balance).
	g := grid.New(32, 16, 6)
	u0 := 20.0
	init := BalancedZonalJet(func(th float64) float64 {
		s := math.Sin(th)
		return u0 * s * s
	})
	cfg := dycore.DefaultConfig()
	cfg.Dt1, cfg.Dt2 = 60, 360
	set := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}

	before := dycore.Run(set, g, comm.Zero(), dycore.InitFunc(init), 0)
	after := dycore.Run(set, g, comm.Zero(), dycore.InitFunc(init), 20)

	if !after.Finals[0].AllFinite() {
		t.Fatal("balanced jet went unstable")
	}
	p := physics.PFromPs(physics.P0)
	maxV, maxDU := 0.0, 0.0
	fa := dycore.FlattenState(g, after.Finals)
	fb := dycore.FlattenState(g, before.Finals)
	n3 := g.Nx * g.Ny * g.Nz
	for i := 0; i < n3; i++ {
		if d := math.Abs(fa[i] - fb[i]); d > maxDU {
			maxDU = d
		}
		if v := math.Abs(fa[n3+i]); v > maxV {
			maxV = v
		}
	}
	if maxV/p > 0.05*u0 {
		t.Errorf("balance broke: max |v| = %v m/s after 20 steps", maxV/p)
	}
	if maxDU/p > 0.01*u0 {
		t.Errorf("zonal wind drifted by %v m/s (> 1%% of the jet)", maxDU/p)
	}
}
