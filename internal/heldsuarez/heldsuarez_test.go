package heldsuarez

import (
	"math"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

func TestTeqProfile(t *testing.T) {
	hs := Standard()
	// Warm equatorial surface near T0.
	if te := hs.Teq(0, physics.P0); math.Abs(te-hs.T0) > 1e-9 {
		t.Errorf("equatorial surface Teq = %v, want %v", te, hs.T0)
	}
	// Poles colder than the equator at the surface by ΔT_y.
	dp := hs.Teq(0, physics.P0) - hs.Teq(math.Pi/2, physics.P0)
	if math.Abs(dp-hs.DeltaTy) > 1e-9 {
		t.Errorf("equator-pole contrast = %v, want %v", dp, hs.DeltaTy)
	}
	// Stratospheric floor.
	if te := hs.Teq(0, 100.0); te != hs.TStratMin {
		t.Errorf("Teq aloft = %v, want the %v floor", te, hs.TStratMin)
	}
}

// TestTeqRowMatchesTeq pins the hoisted form Apply evaluates to the exported
// reference over every (φ, p) a 96×48×12 state can present: each latitude
// row and level, at surface pressures from a deep low to a strong high.
func TestTeqRowMatchesTeq(t *testing.T) {
	g := grid.New(96, 48, 12)
	hs := Standard()
	worst := 0.0
	for j := 0; j < g.Ny; j++ {
		phi := math.Pi/2 - g.ThetaC[j]
		sin2 := math.Sin(phi) * math.Sin(phi)
		for k := 0; k < g.Nz; k++ {
			for ps := 0.85 * physics.P0; ps <= 1.1*physics.P0; ps += 0.01 * physics.P0 {
				p := g.Sigma[k]*physics.PesFromPs(ps) + physics.Pt
				want := hs.Teq(phi, p)
				got := hs.teqRow(sin2, 1-sin2, p)
				worst = math.Max(worst, math.Abs(got-want)/want)
			}
		}
	}
	if worst > 1e-13 {
		t.Errorf("teqRow deviates from Teq by %g relative, want ≤ 1e-13", worst)
	}
}

func TestRelaxationRates(t *testing.T) {
	hs := Standard()
	// Above the boundary layer kT = ka everywhere.
	if kt := hs.KT(0.3, 0.5); kt != hs.Ka {
		t.Errorf("kT aloft = %v, want ka = %v", kt, hs.Ka)
	}
	// At the equatorial surface kT = ks.
	if kt := hs.KT(0, 1.0); math.Abs(kt-hs.Ks) > 1e-12 {
		t.Errorf("kT equator surface = %v, want ks = %v", kt, hs.Ks)
	}
	// Friction zero aloft, kf at the surface.
	if kv := hs.KV(0.5); kv != 0 {
		t.Errorf("kv aloft = %v, want 0", kv)
	}
	if kv := hs.KV(1.0); math.Abs(kv-hs.Kf) > 1e-15 {
		t.Errorf("kv surface = %v, want kf", kv)
	}
	// kT between ka and ks everywhere.
	for _, phi := range []float64{-1.2, 0, 0.7} {
		for _, sig := range []float64{0, 0.4, 0.8, 1} {
			kt := hs.KT(phi, sig)
			if kt < hs.Ka-1e-15 || kt > hs.Ks+1e-15 {
				t.Errorf("kT(%v,%v) = %v outside [ka, ks]", phi, sig, kt)
			}
		}
	}
}

func testBlock(g *grid.Grid) field.Block {
	return field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
}

func TestApplyDampsWinds(t *testing.T) {
	g := grid.New(16, 10, 6)
	st := state.New(testBlock(g))
	// Wind everywhere; forcing must damp only boundary-layer levels.
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				st.U.Set(i, j, k, 10)
				if j > 0 {
					st.V.Set(i, j, k, 5)
				}
			}
		}
	}
	hs := Standard()
	hs.Apply(g, st, 86400) // one day
	for k := 0; k < g.Nz; k++ {
		u := st.U.At(4, 5, k)
		switch {
		case g.Sigma[k] <= hs.SigmaB:
			if u != 10 {
				t.Errorf("level %d (σ=%.2f): free-atmosphere wind changed to %v", k, g.Sigma[k], u)
			}
		default:
			if u >= 10 {
				t.Errorf("level %d (σ=%.2f): boundary-layer wind not damped (%v)", k, g.Sigma[k], u)
			}
			if u <= 0 {
				t.Errorf("level %d: wind overshot to %v", k, u)
			}
		}
	}
}

func TestApplyRelaxesTemperatureTowardTeq(t *testing.T) {
	g := grid.New(16, 10, 6)
	st := state.New(testBlock(g))
	InitialState(g, st) // starts at Teq + small perturbation
	hs := Standard()

	// Push a point's temperature far above equilibrium and relax hard.
	i0, j0, k0 := 4, 5, 5
	p := physics.PFromPs(physics.P0)
	tTil := physics.StandardTemperature(g.Sigma[k0])
	st.Phi.Set(i0, j0, k0, physics.PhiFromTemperature(400, p, tTil))
	before := physics.TemperatureFromPhi(st.Phi.At(i0, j0, k0), p, tTil)

	hs.Apply(g, st, 4*86400)
	after := physics.TemperatureFromPhi(st.Phi.At(i0, j0, k0), p, tTil)
	phi := math.Pi/2 - g.ThetaC[j0]
	pres := g.Sigma[k0]*(physics.P0-physics.Pt) + physics.Pt
	teq := hs.Teq(phi, pres)
	if math.Abs(after-teq) >= math.Abs(before-teq) {
		t.Errorf("relaxation did not approach Teq: |%v−%v| vs |%v−%v|", after, teq, before, teq)
	}
}

func TestApplyFixedPointAtEquilibrium(t *testing.T) {
	// A resting state at exactly Teq and ps = p0 is (nearly) a fixed point
	// of the forcing.
	g := grid.New(16, 10, 6)
	st := state.New(testBlock(g))
	hs := Standard()
	st.InitFromPhysical(g,
		func(lam, th, sig float64) float64 { return 0 },
		func(lam, th, sig float64) float64 { return 0 },
		func(lam, th, sig float64) float64 {
			p := sig*(physics.P0-physics.Pt) + physics.Pt
			return hs.Teq(math.Pi/2-th, p)
		},
		func(lam, th float64) float64 { return physics.P0 },
	)
	before := st.Clone()
	hs.Apply(g, st, 86400)
	if d := st.MaxAbsDiff(before); d > 1e-9 {
		t.Errorf("equilibrium state moved by %v under forcing", d)
	}
}

func TestInitialStateSane(t *testing.T) {
	g := grid.New(32, 16, 8)
	st := state.New(testBlock(g))
	InitialState(g, st)
	if !st.AllFinite() {
		t.Fatal("initial state not finite")
	}
	// Resting atmosphere.
	rest := field.NewF3(st.B)
	if field.MaxAbsDiffOwned(st.U, rest) > 1e-12 || field.MaxAbsDiffOwned(st.V, rest) > 1e-12 {
		t.Error("initial state not at rest")
	}
	// Physical temperatures.
	p := physics.PFromPs(physics.P0)
	for k := 0; k < g.Nz; k++ {
		tTil := physics.StandardTemperature(g.Sigma[k])
		for j := 0; j < g.Ny; j++ {
			tv := physics.TemperatureFromPhi(st.Phi.At(0, j, k), p, tTil)
			if tv < 150 || tv > 350 {
				t.Fatalf("initial T(%d,%d) = %v unphysical", j, k, tv)
			}
		}
	}
}

// applyPointwise is Apply as a per-point loop: p_s, P and p_es evaluated at
// every level, every cell read and written through At/Set. It is the
// reference TestApplyMatchesPointwise holds Apply to.
func applyPointwise(hs Params, g *grid.Grid, st *state.State, dt float64) {
	b := st.B
	for k := b.K0; k < b.K1; k++ {
		sig := g.Sigma[k]
		fv := 1 / (1 + dt*hs.KV(sig))
		if fv != 1 {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					st.U.Set(i, j, k, st.U.At(i, j, k)*fv)
					st.V.Set(i, j, k, st.V.At(i, j, k)*fv)
				}
			}
		}
	}
	for k := b.K0; k < b.K1; k++ {
		sig := g.Sigma[k]
		tTil := physics.StandardTemperature(sig)
		for j := b.J0; j < b.J1; j++ {
			phiLat := math.Pi/2 - g.ThetaC[j]
			kT := hs.KT(phiLat, sig)
			denom := 1 / (1 + dt*kT)
			sinLat := math.Sin(phiLat)
			sin2 := sinLat * sinLat
			cos2 := 1 - sin2
			for i := b.I0; i < b.I1; i++ {
				ps := physics.StandardSurfacePressure + st.Psa.At(i, j)
				p := physics.PFromPs(ps)
				if p <= 0 {
					continue
				}
				pres := sig*physics.PesFromPs(ps) + physics.Pt
				t := physics.TemperatureFromPhi(st.Phi.At(i, j, k), p, tTil)
				teq := hs.teqRow(sin2, cos2, pres)
				tNew := (t + dt*kT*teq) * denom
				st.Phi.Set(i, j, k, physics.PhiFromTemperature(tNew, p, tTil))
			}
		}
	}
}

// TestApplyMatchesPointwise pins Apply bitwise to the per-point reference on
// a perturbed 96×48×12 state, over the whole domain and over a block that
// owns part of each extent (the row windows' offsets), and on a mesh whose
// rows are wider than Apply's column chunk, each with one column whose
// surface pressure leaves P = 0 (skipped by both). Every stored cell must
// agree, so neither may touch a ghost.
func TestApplyMatchesPointwise(t *testing.T) {
	g, wide := grid.New(96, 48, 12), grid.New(600, 6, 3)
	part := field.Block{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, I0: 8, I1: 56, J0: 10, J1: 34, K0: 3, K1: 12, Hx: 3, Hy: 5, Hz: 2}
	for _, c := range []struct {
		g *grid.Grid
		b field.Block
	}{{g, testBlock(g)}, {g, part}, {wide, testBlock(wide)}} {
		g, b := c.g, c.b
		st := state.New(b)
		InitialState(g, st)
		// Deterministic perturbation of every stored cell, ghosts included.
		for n, f := range []*field.F3{st.U, st.V, st.Phi, &st.Psa.F3} {
			for o := range f.Data {
				x := math.Sin(float64(o*(n+3)) * 0.7)
				switch n {
				case 3:
					f.Data[o] += 3000 * x
				default:
					f.Data[o] += 15*x + 0.1*float64(n)
				}
			}
		}
		st.Psa.Set(b.I0+1, b.J0+1, -2*physics.P0)
		ref := st.Clone()
		hs := Standard()
		hs.Apply(g, st, 1800)
		applyPointwise(hs, g, ref, 1800)
		for n, pair := range [][2]*field.F3{{st.U, ref.U}, {st.V, ref.V}, {st.Phi, ref.Phi}, {&st.Psa.F3, &ref.Psa.F3}} {
			for o := range pair[0].Data {
				if math.Float64bits(pair[0].Data[o]) != math.Float64bits(pair[1].Data[o]) {
					t.Fatalf("block %+v component %d cell %d: Apply %v, pointwise %v", b, n, o, pair[0].Data[o], pair[1].Data[o])
				}
			}
		}
	}
}
