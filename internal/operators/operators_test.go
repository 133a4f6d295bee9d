package operators

import (
	"math"
	"math/rand"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/physics"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

func TestSurfaceUpdate(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	psa := field.NewF2(b)
	psa.Set(3, 4, 500) // p_s = 100500 Pa at one point
	sur := NewSurface(b)
	sur.Update(psa)
	wantPes := 100500.0 - physics.Pt
	if got := sur.Pes.At(3, 4); math.Abs(got-wantPes) > 1e-9 {
		t.Errorf("pes = %v, want %v", got, wantPes)
	}
	if got := sur.P.At(3, 4); math.Abs(got-math.Sqrt(wantPes/physics.P0)) > 1e-12 {
		t.Errorf("P = %v", got)
	}
}

func TestCSumTotalsAndBoundaries(t *testing.T) {
	// PW must vanish at σ = 0 and σ = 1 and DBar must equal Σ Δσ·D(P).
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	sur := NewSurface(b)
	sur.Update(st.Psa)
	divp := field.NewF3(b)
	DivP(g, st.U, st.V, sur, divp, b.Owned())
	cres := NewCRes(b)
	CSum(g, nil, nil, divp, cres, b.Owned(), 0, g.Nz)

	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			want := 0.0
			for k := 0; k < g.Nz; k++ {
				want += g.DSigma[k] * divp.At(i, j, k)
			}
			if got := cres.DBar.At(i, j); math.Abs(got-want) > 1e-15+1e-12*math.Abs(want) {
				t.Fatalf("DBar(%d,%d) = %v, want %v", i, j, got, want)
			}
			if pw := cres.PWI.At(i, j, 0); pw != 0 {
				t.Fatalf("PW at σ=0 is %v, want 0", pw)
			}
			if pw := cres.PWI.At(i, j, g.Nz); math.Abs(pw) > 1e-16+1e-10*math.Abs(want) {
				t.Fatalf("PW at σ=1 is %v, want ≈0", pw)
			}
		}
	}
}

func TestCSumParallelMatchesSerial(t *testing.T) {
	// The z-collective summation must reproduce the serial vertical
	// integral for any p_z.
	g := probeGrid()
	bSer := serialBlock(g)
	stSer := smoothState(g, bSer)
	surSer := NewSurface(bSer)
	surSer.Update(stSer.Psa)
	divpSer := field.NewF3(bSer)
	DivP(g, stSer.U, stSer.V, surSer, divpSer, bSer.Owned())
	serial := NewCRes(bSer)
	CSum(g, nil, nil, divpSer, serial, bSer.Owned(), 0, g.Nz)

	for _, pz := range []int{2, 3} {
		w := comm.NewWorld(pz, comm.Zero())
		w.Run(func(c *comm.Comm) {
			tp := topo.New(c, g, 1, 1, pz, 3, 2, 2)
			st := smoothState(g, tp.Block) // InitFromPhysical fills owned only
			st.FillLocalBounds()
			ex := tp.NewExchanger(0, 0, 2)
			ex.Exchange(st.F3s(), st.F2s())
			st.FillLocalBounds()
			sur := NewSurface(tp.Block)
			sur.Update(st.Psa)
			divp := field.NewF3(tp.Block)
			DivP(g, st.U, st.V, sur, divp, tp.Block.Owned())
			cres := NewCRes(tp.Block)
			CSum(g, tp.ColZ, tp.World, divp, cres, tp.Block.Owned(), tp.Block.K0, tp.Block.K1)
			b := tp.Block
			for j := 0; j < g.Ny; j++ {
				for i := 0; i < g.Nx; i++ {
					if got, want := cres.DBar.At(i, j), serial.DBar.At(i, j); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
						t.Errorf("pz=%d DBar(%d,%d): got %v want %v", pz, i, j, got, want)
						return
					}
					for k := b.K0; k <= b.K1 && k <= g.Nz; k++ {
						if got, want := cres.PWI.At(i, j, k), serial.PWI.At(i, j, k); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
							t.Errorf("pz=%d PWI(%d,%d,%d): got %v want %v", pz, i, j, k, got, want)
							return
						}
					}
				}
			}
		})
		if w.Stats().MsgsByCat[comm.CatCollectiveZ] == 0 {
			t.Errorf("pz=%d: CSum performed no z-collective communication", pz)
		}
	}
}

func TestDivPVanishesForRigidZonalFlow(t *testing.T) {
	// A flow with U = const·P along latitude circles and V = 0 has
	// ∂(PU)/∂λ = 0 (P depends on λ only through psa, which we hold
	// uniform), so D(P) must vanish identically.
	g := probeGrid()
	b := serialBlock(g)
	st := state.New(b)
	for k := 0; k < g.Nz; k++ {
		for j := b.WithHalo().J0; j < b.WithHalo().J1; j++ {
			for i := b.WithHalo().I0; i < b.WithHalo().I1; i++ {
				st.U.Set(i, j, k, 7.5)
			}
		}
	}
	sur := NewSurface(b)
	sur.Update(st.Psa) // psa = 0 everywhere: uniform P
	out := field.NewF3(b)
	DivP(g, st.U, st.V, sur, out, b.Owned())
	if m := field.MaxAbsOwned(out); m > 1e-18 {
		t.Errorf("D(P) of rigid zonal flow = %v, want 0", m)
	}
}

func TestSmootherPreservesConstants(t *testing.T) {
	// δ⁴ of a constant is zero: S̃ must be the identity on constants.
	g := probeGrid()
	b := serialBlock(g)
	st := state.New(b)
	for i := range st.Phi.Data {
		st.Phi.Data[i] = 3.25
		st.U.Data[i] = -1.5
	}
	for i := range st.Psa.Data {
		st.Psa.Data[i] = 42
	}
	smo := NewSmoother(g, 1.0)
	out := state.New(b)
	smo.SmoothFull(st, out, b.Owned())
	r := b.Owned()
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				if math.Abs(out.Phi.At(i, j, k)-3.25) > 1e-12 {
					t.Fatalf("P2 not identity on constants: %v", out.Phi.At(i, j, k))
				}
				if math.Abs(out.U.At(i, j, k)-(-1.5)) > 1e-12 {
					t.Fatalf("P1 not identity on constants: %v", out.U.At(i, j, k))
				}
			}
		}
	}
}

func TestSmootherKillsNyquistWave(t *testing.T) {
	// With β = 1, the 2Δx wave is removed completely by P1.
	g := probeGrid()
	b := serialBlock(g)
	u := field.NewF3(b)
	for k := b.WithHalo().K0; k < b.WithHalo().K1; k++ {
		for j := b.WithHalo().J0; j < b.WithHalo().J1; j++ {
			for i := b.WithHalo().I0; i < b.WithHalo().I1; i++ {
				v := 1.0
				if ((i%2)+2)%2 == 1 {
					v = -1
				}
				u.Set(i, j, k, v)
			}
		}
	}
	smo := NewSmoother(g, 1.0)
	out := field.NewF3(b)
	smo.P1Field(u, out, b.Owned())
	if m := field.MaxAbsOwned(out); m > 1e-12 {
		t.Errorf("β=1 P1 left Nyquist amplitude %v", m)
	}
}

func TestSmootherDampsMonotonically(t *testing.T) {
	// Smoothing must not amplify any zonal wave (stability of S̃).
	g := probeGrid()
	b := serialBlock(g)
	smo := NewSmoother(g, 1.0)
	for m := 1; m <= g.Nx/2; m++ {
		u := field.NewF3(b)
		for k := b.WithHalo().K0; k < b.WithHalo().K1; k++ {
			for j := b.WithHalo().J0; j < b.WithHalo().J1; j++ {
				for i := b.WithHalo().I0; i < b.WithHalo().I1; i++ {
					u.Set(i, j, k, math.Sin(2*math.Pi*float64(m*((i+g.Nx)%g.Nx))/float64(g.Nx)))
				}
			}
		}
		before := field.MaxAbsOwned(u)
		out := field.NewF3(b)
		smo.P1Field(u, out, b.Owned())
		after := field.MaxAbsOwned(out)
		if after > before*(1+1e-12) {
			t.Errorf("P1 amplified wave m=%d: %v -> %v", m, before, after)
		}
	}
}

func TestSmoothingLinearity(t *testing.T) {
	// S̃ is linear: S̃(a·x + b·y) = a·S̃(x) + b·S̃(y).
	g := probeGrid()
	b := serialBlock(g)
	rng := rand.New(rand.NewSource(11))
	x := field.NewF3(b)
	y := field.NewF3(b)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	smo := NewSmoother(g, 0.8)
	comb := field.NewF3(b)
	field.Lin2(comb, 2, x, -3, y)
	outComb := field.NewF3(b)
	smo.P2Former(comb, outComb, b.Owned(), FullAvail)
	outX := field.NewF3(b)
	outY := field.NewF3(b)
	smo.P2Former(x, outX, b.Owned(), FullAvail)
	smo.P2Former(y, outY, b.Owned(), FullAvail)
	want := field.NewF3(b)
	field.Lin2(want, 2, outX, -3, outY)
	if d := field.MaxAbsDiffOwned(outComb, want); d > 1e-10 {
		t.Errorf("P2 not linear: %v", d)
	}
}

func TestP2FormerPlusLatterEqualsFull(t *testing.T) {
	// The splitting identity (paper eq. 14) on a single block with an
	// artificial window: S̃2(S̃1(φ)) == S̃(φ) to round-off.
	g := probeGrid()
	b := serialBlock(g)
	rng := rand.New(rand.NewSource(12))
	in := field.NewF3(b)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	smo := NewSmoother(g, 1.0)

	full := field.NewF3(b)
	smo.P2Former(in, full, b.Owned(), FullAvail)

	window := func(j int) (int, int) { return 4, 7 } // artificial mid-domain split
	split := field.NewF3(b)
	smo.P2Former(in, split, b.Owned(), window)
	smo.P2Latter(in, split, b.Owned(), window)

	if d := field.MaxAbsDiffOwned(full, split); d > 1e-13 {
		t.Errorf("S̃2∘S̃1 differs from S̃ by %v", d)
	}
}

func TestAdaptationGravityWaveCoupling(t *testing.T) {
	// A pure Φ anomaly must accelerate U away from the anomaly with speed
	// coefficient b: the gravity-wave adaptation term (sign and scale
	// check of P_λ⁽¹⁾).
	g := probeGrid()
	b := serialBlock(g)
	st := state.New(b)
	// Φ hump at longitude index 8 on row 5, all levels.
	for k := b.WithHalo().K0; k < b.WithHalo().K1; k++ {
		for j := b.WithHalo().J0; j < b.WithHalo().J1; j++ {
			for i := b.WithHalo().I0; i < b.WithHalo().I1; i++ {
				st.Phi.Set(i, j, k, 10*math.Exp(-0.5*math.Pow(float64(((i+g.Nx)%g.Nx)-8), 2)))
			}
		}
	}
	sur := NewSurface(b)
	sur.Update(st.Psa)
	cres := NewCRes(b) // zero Ĉ: isolate the pressure-gradient terms
	out := NewTendency(b)
	Adaptation(g, DefaultAdaptConfig(), st, sur, cres, out, b.Owned())
	// West of the hump (U point at i=7, between centers 6 and 7, where
	// ∂Φ/∂λ > 0): dU must be negative (flow pushed west, away from the
	// anomaly); east of it positive.
	j, k := 5, 3
	if out.DU.At(7, j, k) >= 0 {
		t.Errorf("dU west of Φ hump = %v, want < 0", out.DU.At(7, j, k))
	}
	if out.DU.At(10, j, k) <= 0 {
		t.Errorf("dU east of Φ hump = %v, want > 0", out.DU.At(10, j, k))
	}
}

func TestAdvectionOfUniformFieldIsConservative(t *testing.T) {
	// Advecting a uniform Φ by a divergence-free-ish flow must produce a
	// small tendency compared to advecting a strongly varying field
	// (consistency: L(const) involves only flow divergence terms).
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	// Make Φ exactly uniform.
	for i := range st.Phi.Data {
		st.Phi.Data[i] = 5
	}
	sur := NewSurface(b)
	sur.Update(st.Psa)
	_, cres, _ := prepare(g, smoothState(g, b))
	out := NewTendency(b)
	Advection(g, st, sur, cres, out, b.Owned())
	uniform := field.MaxAbsOwned(out.DPhi)

	st2 := smoothState(g, b)
	// Strongly varying Φ.
	for k := b.WithHalo().K0; k < b.WithHalo().K1; k++ {
		for j := b.WithHalo().J0; j < b.WithHalo().J1; j++ {
			for i := b.WithHalo().I0; i < b.WithHalo().I1; i++ {
				st2.Phi.Set(i, j, k, 5*math.Sin(4*2*math.Pi*float64((i+g.Nx)%g.Nx)/float64(g.Nx)))
			}
		}
	}
	out2 := NewTendency(b)
	sur2 := NewSurface(b)
	sur2.Update(st2.Psa)
	Advection(g, st2, sur2, cres, out2, b.Owned())
	varying := field.MaxAbsOwned(out2.DPhi)
	if varying < 3*uniform {
		t.Errorf("advection does not distinguish uniform (%v) from varying (%v) fields", uniform, varying)
	}
}

func TestVTendencyZeroAtPoles(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	sur, cres, _ := prepare(g, st)
	out := NewTendency(b)
	Adaptation(g, DefaultAdaptConfig(), st, sur, cres, out, b.Owned())
	for k := 0; k < g.Nz; k++ {
		for i := 0; i < g.Nx; i++ {
			if out.DV.At(i, 0, k) != 0 {
				t.Fatalf("adaptation dV at the pole row is %v, want 0", out.DV.At(i, 0, k))
			}
		}
	}
	out2 := NewTendency(b)
	Advection(g, st, sur, cres, out2, b.Owned())
	for k := 0; k < g.Nz; k++ {
		for i := 0; i < g.Nx; i++ {
			if out2.DV.At(i, 0, k) != 0 {
				t.Fatalf("advection dV at the pole row is %v, want 0", out2.DV.At(i, 0, k))
			}
		}
	}
}

func TestTendencyFiniteOnRealisticState(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	sur, cres, _ := prepare(g, st)
	out := NewTendency(b)
	Adaptation(g, DefaultAdaptConfig(), st, sur, cres, out, b.Owned())
	Advection(g, st, sur, cres, out, b.Owned())
	for _, f := range out.F3s() {
		if !field.AllFiniteOwned(f) {
			t.Fatal("non-finite tendency")
		}
	}
}

func TestCSumDeepHaloRegionMatchesSerial(t *testing.T) {
	// The deep-halo execution evaluates Ĉ on a region extending beyond the
	// owned block (asymmetrically in z). Its values on that extended region
	// must equal the serial evaluation — the property that makes the lagged
	// Ĉ usable in halo areas.
	g := probeGrid()
	bSer := serialBlock(g)
	stSer := smoothState(g, bSer)
	_, serial, _ := prepare(g, stSer)

	const pz = 2
	w := comm.NewWorld(pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := topo.New(c, g, 1, 1, pz, 3, 2, 2)
		st := smoothState(g, tp.Block)
		st.FillLocalBounds()
		ex := tp.NewExchanger(0, 0, 2)
		ex.Exchange(st.F3s(), st.F2s())
		st.FillLocalBounds()
		sur := NewSurface(tp.Block)
		sur.Update(st.Psa)

		// Extended region: one layer beyond the owned block toward high k.
		b := tp.Block
		r := b.Owned()
		if r.K1 < g.Nz {
			r.K1++
		}
		divp := field.NewF3(tp.Block)
		DivP(g, st.U, st.V, sur, divp, r)
		cres := NewCRes(tp.Block)
		CSum(g, tp.ColZ, tp.World, divp, cres, r, r.K0, r.K1)

		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				for k := r.K0; k <= r.K1; k++ {
					got := cres.PWI.At(i, j, k)
					want := serial.PWI.At(i, j, k)
					if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
						t.Errorf("pz rank %d: PWI(%d,%d,%d) = %v, want %v", c.Rank(), i, j, k, got, want)
						return
					}
				}
			}
		}
	})
}
