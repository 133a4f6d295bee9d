package operators

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
	"cadycore/internal/testcases"
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
	CSumWith(g, nil, nil, divp, cres, b.Owned(), 0, g.Nz, &CSumScratch{})

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

// cSum evaluates Ĉ over r twice, from a separate D(P) array and with D(P)
// written into the result's own PWI (divP == res.PWI, as the dycore calls
// it), and reports an error unless the two results hold the same bits in
// every stored cell. It returns the separate-array result.
func cSum(t *testing.T, g *grid.Grid, cz, world *comm.Comm, st *state.State, sur *Surface, r field.Rect) *CRes {
	t.Helper()
	divp := field.NewF3(st.B)
	DivP(g, st.U, st.V, sur, divp, r)
	sep := NewCRes(st.B)
	CSumWith(g, cz, world, divp, sep, r, r.K0, r.K1, &CSumScratch{})
	in := NewCRes(st.B)
	DivP(g, st.U, st.V, sur, in.PWI, r)
	CSumWith(g, cz, world, in.PWI, in, r, r.K0, r.K1, &CSumScratch{})
	for _, p := range [][2][]float64{{sep.PWI.Data, in.PWI.Data}, {sep.DBar.Data, in.DBar.Data}} {
		for n := range p[0] {
			if math.Float64bits(p[0][n]) != math.Float64bits(p[1][n]) {
				t.Errorf("Ĉ over %v with divP == res.PWI: cell %d is %v, separate D(P) gives %v", r, n, p[1][n], p[0][n])
				return sep
			}
		}
	}
	return sep
}

func TestCSumParallelMatchesSerial(t *testing.T) { checkCSumLayouts(t, false) }

// checkCSumLayouts evaluates Ĉ on a σ-sheared state under p_z = 2, 3 and 4
// — 2 and 4 split Nz = 6 into nodes of the summation tree, 3 does not —
// and requires the serial bits in DBar and in PWI on every interface of the
// rect: the owned block, or with deep one level past it toward high k, as
// the deep-halo execution evaluates Ĉ. D(P) may live in the result's PWI
// (cSum).
func checkCSumLayouts(t *testing.T, deep bool) {
	g := probeGrid()
	bSer := serialBlock(g)
	stSer := refState(g, bSer)
	surSer := NewSurface(bSer)
	surSer.Update(stSer.Psa)
	serial := cSum(t, g, nil, nil, stSer, surSer, bSer.Owned())

	for _, pz := range []int{2, 3, 4} {
		w := comm.NewWorld(pz, comm.Zero())
		w.Run(func(c *comm.Comm) {
			tp := topo.New(c, g, 1, 1, pz, 3, 2, 2)
			st := refState(g, tp.Block)
			ex := tp.NewExchanger(0, 0, 2)
			ex.Exchange(st.F3s(), st.F2s())
			st.FillLocalBounds(st.B.WithHalo())
			sur := NewSurface(tp.Block)
			sur.Update(st.Psa)
			r := tp.Block.Owned()
			if deep {
				r.K1 = min(r.K1+1, g.Nz)
			}
			cres := cSum(t, g, tp.ColZ, tp.World, st, sur, r)
			for j := 0; j < g.Ny; j++ {
				for i := 0; i < g.Nx; i++ {
					if got, want := cres.DBar.At(i, j), serial.DBar.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("pz=%d DBar(%d,%d): got %v, serial %v", pz, i, j, got, want)
						return
					}
					for k := r.K0; k <= r.K1; k++ {
						if got, want := cres.PWI.At(i, j, k), serial.PWI.At(i, j, k); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("pz=%d rank %d PWI(%d,%d,%d): got %v, serial %v", pz, c.Rank(), i, j, k, got, want)
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
	if m := maxAbsOwned(out); m > 1e-18 {
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
	if m := maxAbsOwned(out); m > 1e-12 {
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
		before := maxAbsOwned(u)
		out := field.NewF3(b)
		smo.P1Field(u, out, b.Owned())
		after := maxAbsOwned(out)
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
	lin2 := func(p float64, x *field.F3, q float64, y *field.F3) *field.F3 {
		d := field.NewF3(x.B)
		for i := range d.Data {
			d.Data[i] = p*x.Data[i] + q*y.Data[i]
		}
		return d
	}
	smo := NewSmoother(g, 0.8)
	comb := lin2(2, x, -3, y)
	outComb := field.NewF3(b)
	smo.P2(comb, outComb, b.Owned())
	outX := field.NewF3(b)
	outY := field.NewF3(b)
	smo.P2(x, outX, b.Owned())
	smo.P2(y, outY, b.Owned())
	want := lin2(2, outX, -3, outY)
	if d := field.MaxAbsDiffOwned(outComb, want); d > 1e-10 {
		t.Errorf("P2 not linear: %v", d)
	}
}

// TestP2FormerPlusLatterEqualsFull checks the splitting identity (paper eq.
// 14) on a single block with artificial windows of 1 to 5 rows, mid-domain
// and at each pole: S̃1 applies P2 to the window's rows whose five-row window
// lies inside it (past a pole the mirror rows count), S̃2 applies it to the
// rest from the originals, and the window's rows hold the full P2's bits.
// The split reads a shifted pole mirror, the full P2 the plain one: no row
// past a pole carries weight.
func TestP2FormerPlusLatterEqualsFull(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	rng := rand.New(rand.NewSource(12))
	in := field.NewF3(b)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	in.FillXPeriodic()
	field.FillPolesY(in, field.Even, field.CenterY)
	shifted := in.Clone()
	field.FillPolesYShifted(shifted, field.Even, field.CenterY)
	smo := NewSmoother(g, 1.0)
	full := field.NewF3(b)
	smo.P2(in, full, b.Owned())

	for n := 1; n <= 5; n++ {
		for _, lo := range []int{0, 3, g.Ny - n} {
			hi := lo + n
			split := field.NewF3(b)
			for j := lo; j < hi; j++ {
				r := b.Owned()
				r.J0, r.J1 = j, j+1
				if (lo == 0 || j-2 >= lo) && (hi == g.Ny || j+2 < hi) {
					smo.P2(shifted, split, r) // S̃1
				}
			}
			for j := lo; j < hi; j++ {
				r := b.Owned()
				r.J0, r.J1 = j, j+1
				if !((lo == 0 || j-2 >= lo) && (hi == g.Ny || j+2 < hi)) {
					smo.P2(shifted, split, r) // S̃2, from the originals
				}
			}
			for k := 0; k < g.Nz; k++ {
				for j := lo; j < hi; j++ {
					for i := 0; i < g.Nx; i++ {
						if got, want := split.At(i, j, k), full.At(i, j, k); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("window [%d, %d) (%d,%d,%d): S̃2∘S̃1 gives %v, S̃ %v", lo, hi, i, j, k, got, want)
						}
					}
				}
			}
		}
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
	AdvectionScratch(g, st, sur, cres, out, b.Owned(), nil)
	uniform := maxAbsOwned(out.DPhi)

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
	AdvectionScratch(g, st2, sur2, cres, out2, b.Owned(), nil)
	varying := maxAbsOwned(out2.DPhi)
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
	AdvectionScratch(g, st, sur, cres, out2, b.Owned(), nil)
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
	AdvectionScratch(g, st, sur, cres, out, b.Owned(), nil)
	for _, f := range out.Fields() {
		if !field.AllFiniteOwned(f) {
			t.Fatal("non-finite tendency")
		}
	}
}

// Sinks that make the accessor results escape, so a per-call slice literal
// would be a heap allocation rather than a stack temporary.
var sinkF3s []*field.F3

// TestTendencyAccessorsZeroAlloc: Fields feeds the distributed filter on
// every X-Y p_x > 1 step, a path the single-rank step tests never reach, so
// it (and Zero) must hand out the construction-time array.
func TestTendencyAccessorsZeroAlloc(t *testing.T) {
	out := NewTendency(serialBlock(probeGrid()))
	allocs := testing.AllocsPerRun(100, func() {
		sinkF3s = out.Fields()
		out.Zero()
	})
	if allocs != 0 {
		t.Errorf("Tendency Fields/Zero allocate %v times per call, want 0", allocs)
	}
}

func TestCSumDeepHaloRegionMatchesSerial(t *testing.T) { checkCSumLayouts(t, true) }

// TestTendencyOnItsComputeExtent: the kernels write a tendency by its own
// block, so one stored only on the rect it is computed on (no y or z halo,
// the state's x halo) holds bitwise what a tendency on the state's block
// holds there, for Â + Ĉ and for L̃ with planes stored one row past the rect.
// A tendency or scratch with another x halo is refused.
func TestTendencyOnItsComputeExtent(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	sur, cres, _ := prepare(g, st)
	r := field.Rect{I0: 0, I1: g.Nx, J0: 2, J1: 7, K0: 1, K1: 4}
	narrow := b
	narrow.J0, narrow.J1, narrow.K0, narrow.K1 = r.J0, r.J1, r.K0, r.K1
	narrow.Hy, narrow.Hz = 0, 0
	planes := narrow
	planes.Hy = 1
	for _, kern := range []struct {
		name string
		run  func(out *Tendency, sc *AdvScratch)
	}{
		{"adaptation", func(out *Tendency, _ *AdvScratch) { Adaptation(g, DefaultAdaptConfig(), st, sur, cres, out, r) }},
		{"advection", func(out *Tendency, sc *AdvScratch) { AdvectionScratch(g, st, sur, cres, out, r, sc) }},
	} {
		wide, small := NewTendency(b), NewTendency(narrow)
		kern.run(wide, NewAdvScratch(b))
		kern.run(small, NewAdvScratch(planes))
		for c, pair := range [3][2]*field.F3{{wide.DU, small.DU}, {wide.DV, small.DV}, {wide.DPhi, small.DPhi}} {
			for k := r.K0; k < r.K1; k++ {
				for j := r.J0; j < r.J1; j++ {
					for i := r.I0; i < r.I1; i++ {
						if a, o := pair[0].At(i, j, k), pair[1].At(i, j, k); math.Float64bits(a) != math.Float64bits(o) {
							t.Fatalf("%s component %d at (%d,%d,%d): %v on its extent, %v on the state's block", kern.name, c, i, j, k, o, a)
						}
					}
				}
			}
		}
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				if a, o := wide.DPsa.At(i, j), small.DPsa.At(i, j); math.Float64bits(a) != math.Float64bits(o) {
					t.Fatalf("%s dp'_sa at (%d,%d): %v on its extent, %v on the state's block", kern.name, i, j, o, a)
				}
			}
		}
	}

	otherX := b
	otherX.Hx--
	for name, f := range map[string]func(){
		"tendency": func() { Adaptation(g, DefaultAdaptConfig(), st, sur, cres, NewTendency(otherX), r) },
		"scratch":  func() { AdvectionScratch(g, st, sur, cres, NewTendency(b), r, NewAdvScratch(otherX)) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "x halo") {
					t.Errorf("%s with another x halo: got panic %q, want one about the x halo", name, msg)
				}
			}()
			f()
		}()
	}
}

// TestSmoothingConservesMass: one S̃ keeps the area sum of p′_sa (the dry
// mass) to round-off. δ⁴_θ is in flux form with sin θ face weights that
// vanish at the poles, so Σ_j sin θ_j·(δ⁴_θ φ)_j telescopes; δ⁴_λ sums to
// zero around each circle. With the plain (1, −4, 6, −4, 1) weights one S̃
// of this state moved the sum by 5.0e-5 of Σ area·|Δp′_sa|.
func TestSmoothingConservesMass(t *testing.T) {
	g := grid.New(64, 32, 10)
	b := field.Block{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, I1: g.Nx, J1: g.Ny, K1: g.Nz, Hx: 3, Hy: 2, Hz: 1}
	st := state.New(b)
	testcases.RandomNoise(7, 5, 2, 200)(g, st)
	st.FillLocalBounds(b.WithHalo())
	out := state.New(b)
	NewSmoother(g, 1.0).SmoothFull(st, out, b.Owned())
	var dm, moved float64
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			d := g.CellArea(j) * (out.Psa.At(i, j) - st.Psa.At(i, j))
			dm += d
			moved += math.Abs(d)
		}
	}
	t.Logf("Σ area·Δp′_sa = %.3g against Σ area·|Δp′_sa| = %.3g", dm, moved)
	if !(moved > 0) || math.Abs(dm) > 1e-13*moved {
		t.Errorf("one S̃ moves Σ area·p′_sa by %.3g, %.2g of Σ area·|Δp′_sa| = %.3g; want round-off (≤ 1e-13)",
			dm, math.Abs(dm)/moved, moved)
	}
}

// TestRotationSense guards the sign of the Coriolis pair for the model's
// southward-positive V: dU = … − f*·V and dV = … + f*·U. A northern-hemisphere
// westerly jet in gradient-wind balance, ∂Φ/∂θ = (a/b)·f*·U with θ the
// colatitude, has Φ rising toward the equator, and the adaptation's V
// tendency vanishes on it up to truncation. Φ is integrated here from the
// analytic balance by quadrature, independently of testcases.BalancedZonalJet
// and of the kernel's discrete form; with the pair's signs flipped, DV
// reads twice the Coriolis force instead of nothing.
func TestRotationSense(t *testing.T) {
	g := grid.New(32, 48, 4)
	b := field.Block{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, I1: g.Nx, J1: g.Ny, K1: g.Nz, Hx: 3, Hy: 2, Hz: 1}
	p := physics.PFromPs(physics.StandardSurfacePressure) // p'_sa = 0
	// A westerly in the northern hemisphere only.
	wind := func(th float64) float64 {
		if th >= math.Pi/2 {
			return 0
		}
		return 20 * math.Pow(math.Sin(2*th), 2)
	}
	fu := func(th float64) float64 { // f*·U, which vanishes with the wind
		if u := wind(th); u != 0 {
			return physics.CoriolisFStar(th, u) * p * u
		}
		return 0
	}
	phi := make([]float64, g.Ny)
	for j, th := range g.ThetaC { // composite Simpson from the north pole
		const n = 2000
		h, sum := th/n, fu(0)+fu(th)
		for i := 1; i < n; i++ {
			sum += float64(2+2*(i%2)) * fu(float64(i)*h)
		}
		phi[j] = physics.EarthRadius / physics.B * sum * h / 3
	}
	st := state.New(b)
	w := b.WithHalo()
	for k := w.K0; k < w.K1; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := w.I0; i < w.I1; i++ {
				st.U.Set(i, j, k, p*wind(g.ThetaC[j]))
				st.Phi.Set(i, j, k, phi[j])
			}
		}
	}
	st.FillLocalBounds(w)
	for j := 1; j < g.Ny/2; j++ {
		if phi[j] <= phi[j-1] {
			t.Fatalf("Φ falls equatorward between rows %d and %d under a northern westerly", j-1, j)
		}
	}
	sur := NewSurface(b)
	sur.Update(st.Psa)
	out := NewTendency(b)
	Adaptation(g, DefaultAdaptConfig(), st, sur, NewCRes(b), out, b.Owned())
	scale, worst := 0.0, 0.0
	for j := 2; j < g.Ny-1; j++ {
		scale = max(scale, math.Abs(fu(0.5*(g.ThetaC[j-1]+g.ThetaC[j])))) // at interface j
		for k := 0; k < g.Nz; k++ {
			for i := 0; i < g.Nx; i++ {
				worst = max(worst, math.Abs(out.DV.At(i, j, k)))
			}
		}
	}
	t.Logf("max |DV| = %.3g on interior rows, max |f*·U| = %.3g", worst, scale)
	if worst > 0.05*scale {
		t.Errorf("max |DV| = %.3g on a balanced westerly, want ≤ 5%% of max |f*·U| = %.3g", worst, scale)
	}
}
