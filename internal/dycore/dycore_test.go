package dycore

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// testInit is a smooth, zonally asymmetric initial condition: a westerly jet
// with wave perturbations in wind, temperature and surface pressure.
func testInit(g *grid.Grid, st *state.State) {
	st.InitFromPhysical(g,
		func(lam, th, sig float64) float64 { // u
			return 20*math.Sin(th)*math.Sin(th) + 2*math.Sin(3*lam)*math.Sin(th)
		},
		func(lam, th, sig float64) float64 { // v
			return 1.5 * math.Sin(2*lam) * math.Sin(th) * math.Sin(th)
		},
		func(lam, th, sig float64) float64 { // T
			base := 288 - 60*sig*0 - 40*(1-sig) // warm surface, cold top
			return base + 10*math.Cos(th)*math.Cos(th) + 2*math.Cos(2*lam)*math.Sin(th)
		},
		func(lam, th float64) float64 { // ps
			return 100000 + 300*math.Cos(2*lam)*math.Sin(th)
		},
	)
}

func testCfg(m int) Config {
	cfg := DefaultConfig()
	cfg.M = m
	cfg.Dt1 = 40
	cfg.Dt2 = 240
	return cfg
}

func testGrid() *grid.Grid { return grid.New(16, 10, 4) }

func TestSerialStepFiniteAndChanges(t *testing.T) {
	g := testGrid()
	res := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: testCfg(2)}, g, comm.Zero(), testInit, 3)
	st := res.Finals[0]
	if !st.AllFinite() {
		t.Fatal("serial run produced non-finite values")
	}
	// The state must actually evolve.
	fresh := state.New(st.B)
	testInit(g, fresh)
	if st.MaxAbsDiff(fresh) == 0 {
		t.Fatal("state did not change after 3 steps")
	}
	if res.Count.HaloExchanges == 0 || res.Count.CEvaluations == 0 {
		t.Fatalf("counters not advancing: %+v", res.Count)
	}
}

func TestBaselineYZMatchesSerial(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	serial := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)

	for _, pp := range [][2]int{{2, 1}, {1, 2}, {2, 2}, {5, 2}} {
		par := Run(Setup{Alg: AlgBaselineYZ, PA: pp[0], PB: pp[1], Cfg: cfg}, g, comm.Zero(), testInit, 2)
		d := MaxDiffGlobal(g, serial.Finals, par.Finals)
		// With p_z > 1 the vertical reduction order differs: allow
		// round-off-scale deviation; with p_z = 1 the match is bitwise.
		tol := 0.0
		if pp[1] > 1 {
			tol = 1e-7
		}
		if d > tol {
			t.Errorf("Y-Z %dx%d deviates from serial by %g (tol %g)", pp[0], pp[1], d, tol)
		}
	}
}

func TestBaselineXYMatchesSerial(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	serial := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)

	for _, pp := range [][2]int{{2, 1}, {2, 2}, {4, 2}} {
		par := Run(Setup{Alg: AlgBaselineXY, PA: pp[0], PB: pp[1], Cfg: cfg}, g, comm.Zero(), testInit, 2)
		d := MaxDiffGlobal(g, serial.Finals, par.Finals)
		if d != 0 {
			t.Errorf("X-Y %dx%d deviates from serial by %g (want bitwise match)", pp[0], pp[1], d)
		}
	}
}

func TestCommAvoidMatchesBaseline(t *testing.T) {
	g := testGrid()
	cfg := testCfg(1)
	base := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)

	// Exact-C CA must match the baseline to round-off: same operator
	// sequence, only the halo/overlap/smoothing-fusion mechanics differ.
	cfgExact := cfg
	cfgExact.ExactC = true
	for _, pp := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		ca := Run(Setup{Alg: AlgCommAvoid, PA: pp[0], PB: pp[1], Cfg: cfgExact}, g, comm.Zero(), testInit, 2)
		d := MaxDiffGlobal(g, base.Finals, ca.Finals)
		if d > 1e-7 {
			t.Errorf("exact-C CA %dx%d deviates from baseline by %g", pp[0], pp[1], d)
		}
	}

	// Approximate-C CA deviates only at the approximation's order.
	ca := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)
	d := MaxDiffGlobal(g, base.Finals, ca.Finals)
	scale := maxAbsVec(FlattenState(g, base.Finals))
	if d > 1e-3*scale {
		t.Errorf("approximate-C CA deviates from baseline by %g (scale %g)", d, scale)
	}
	if !ca.Finals[0].AllFinite() {
		t.Error("CA run produced non-finite values")
	}
}

func TestCommAvoidCounters(t *testing.T) {
	g := testGrid()
	cfg := testCfg(3)
	steps := 4

	ca := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, steps)
	// 1 bootstrap exchange + 2 per step + 1 Finalize smoothing exchange.
	wantEx := int64(1 + 2*steps + 1)
	if ca.Count.HaloExchanges != wantEx {
		t.Errorf("CA exchange rounds = %d, want %d", ca.Count.HaloExchanges, wantEx)
	}
	// 1 bootstrap Ĉ + 2M per step.
	wantC := int64(1 + 2*cfg.M*steps)
	if ca.Count.CEvaluations != wantC {
		t.Errorf("CA Ĉ evaluations = %d, want %d (2M per step)", ca.Count.CEvaluations, wantC)
	}

	base := Run(Setup{Alg: AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, steps)
	// Baseline: bootstrap + (3M+4) per step (13 for M = 3, Section 5.2).
	wantEx = int64(1 + (3*cfg.M+4)*steps)
	if base.Count.HaloExchanges != wantEx {
		t.Errorf("baseline exchange rounds = %d, want %d", base.Count.HaloExchanges, wantEx)
	}
	// Baseline: bootstrap + 3M Ĉ per step.
	wantC = int64(1 + 3*cfg.M*steps)
	if base.Count.CEvaluations != wantC {
		t.Errorf("baseline Ĉ evaluations = %d, want %d (3M per step)", base.Count.CEvaluations, wantC)
	}
}

func TestApproximationOrderInDt(t *testing.T) {
	// The approximate nonlinear iteration replaces Ĉ(ψ^{i−1}) by a lagged
	// evaluation inside the highest-order correction term (eq. 13), so the
	// deviation from the exact iteration must shrink superlinearly in Δt1.
	g := testGrid()
	errAt := func(dt float64) float64 {
		cfg := testCfg(2)
		cfg.Dt1 = dt
		cfg.Dt2 = 6 * dt
		exact := cfg
		exact.ExactC = true
		a := Run(Setup{Alg: AlgCommAvoid, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)
		b := Run(Setup{Alg: AlgCommAvoid, PA: 1, PB: 1, Cfg: exact}, g, comm.Zero(), testInit, 2)
		return MaxDiffGlobal(g, a.Finals, b.Finals)
	}
	e1 := errAt(40)
	e2 := errAt(20)
	if e1 == 0 || e2 == 0 {
		t.Skip("approximation made no difference at this resolution")
	}
	ratio := e1 / e2
	if ratio < 3.5 { // at least ~Δt² shrinkage; the theory predicts more
		t.Errorf("approximation error ratio %g (e(40)=%g, e(20)=%g): not high-order", ratio, e1, e2)
	}
}

func TestAblationSwitchesRun(t *testing.T) {
	g := testGrid()
	base := testCfg(2)
	for _, mut := range []func(*Config){
		func(c *Config) { c.ExactC = true },
		func(c *Config) { c.NoOverlap = true },
		func(c *Config) { c.NoFusedSmoothing = true },
		func(c *Config) { c.ExactC = true; c.NoOverlap = true; c.NoFusedSmoothing = true },
	} {
		cfg := base
		mut(&cfg)
		res := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, 2)
		if !res.Finals[0].AllFinite() {
			t.Errorf("ablation %+v produced non-finite state", cfg)
		}
	}
}

func TestNoFusedSmoothingMatchesFused(t *testing.T) {
	// Fusing the smoothing into the adaptation exchange must not change the
	// result beyond round-off (the split is exact in exact arithmetic).
	g := testGrid()
	cfg := testCfg(2)
	cfg.ExactC = true
	plain := cfg
	plain.NoFusedSmoothing = true
	a := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, 3)
	b := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: plain}, g, comm.Zero(), testInit, 3)
	d := MaxDiffGlobal(g, a.Finals, b.Finals)
	scale := maxAbsVec(FlattenState(g, a.Finals))
	if d > 1e-10*(1+scale) {
		t.Errorf("fused vs plain smoothing differ by %g (scale %g)", d, scale)
	}
}

func TestOverlapDoesNotChangeResult(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	noov := cfg
	noov.NoOverlap = true
	a := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, 3)
	b := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: noov}, g, comm.Zero(), testInit, 3)
	if d := MaxDiffGlobal(g, a.Finals, b.Finals); d != 0 {
		t.Errorf("overlap changed the result by %g (must be bitwise identical)", d)
	}
}

func maxAbsVec(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func TestBaseline3DMatchesSerial(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	serial := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)
	// Full 3-D process grid: pays both the distributed filter and the
	// z-collective, but must agree numerically.
	par := Run(Setup{Alg: AlgBaseline3D, PA: 2, PB: 2, PC: 2, Cfg: cfg}, g, comm.Zero(), testInit, 2)
	if d := MaxDiffGlobal(g, serial.Finals, par.Finals); d > 1e-7 {
		t.Errorf("3-D 2x2x2 deviates from serial by %g", d)
	}
	// It must have actually used both collective categories.
	if par.Agg.CommTimeMax[comm.CatCollectiveX] == 0 && par.Agg.MsgsByCat[comm.CatCollectiveX] == 0 {
		t.Error("3-D run did no x-collective communication")
	}
	if par.Agg.MsgsByCat[comm.CatCollectiveZ] == 0 {
		t.Error("3-D run did no z-collective communication")
	}
}

func TestShiftedPoleMirror(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	cfg.ShiftedPoleMirror = true

	// Runs stable and decomposition-invariant (the shift is rank-local
	// under p_x = 1).
	a := Run(Setup{Alg: AlgCommAvoid, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 3)
	b := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 3)
	if !a.Finals[0].AllFinite() {
		t.Fatal("shifted-mirror run unstable")
	}
	// Round-off-scale tolerance: the fused smoothing split regroups the
	// row sums at partition edges (DESIGN.md §6.2).
	scale0 := maxAbsVec(FlattenState(g, a.Finals))
	if d := MaxDiffGlobal(g, a.Finals, b.Finals); d > 1e-12*(1+scale0) {
		t.Errorf("shifted mirror not decomposition-invariant: %g", d)
	}

	// It is a genuinely different boundary condition.
	plain := testCfg(2)
	c := Run(Setup{Alg: AlgCommAvoid, PA: 1, PB: 1, Cfg: plain}, g, comm.Zero(), testInit, 3)
	if d := MaxDiffGlobal(g, a.Finals, c.Finals); d == 0 {
		t.Error("shifted and unshifted mirrors produced identical trajectories")
	}

	// Rejected under X-Y decomposition.
	defer func() {
		if recover() == nil {
			t.Error("ShiftedPoleMirror under p_x > 1 should panic")
		}
	}()
	xy := cfg
	Run(Setup{Alg: AlgBaselineXY, PA: 2, PB: 2, Cfg: xy}, g, comm.Zero(), testInit, 1)
}

// TestDeepHaloAcrossBoundariesInvisible is the differential row for the
// clamped halo storage (field.Block.WithHalo): on 16×24×6 with M = 3 the deep
// halo (11 rows, 9 levels) of the *non-pole* process rows of a 4-row grid
// crosses the pole by 5 rows, and under p_z = 2 both z blocks reach past the
// model top and bottom — exactly the ghost cells that are no longer stored.
// Nothing read them, so (a) every layout still agrees with the 1×1 run at the
// tolerance TestShiftedPoleMirror uses, for the plain and the shifted pole
// mirror, (b) the final states are bit for bit the ones the symmetric,
// unclamped storage produced (FNV-1a over the float bits of the global state,
// recorded at the commit before the clamp — re-recorded there, with the
// staged FFT kernel dropped into that commit, when the kernel moved every
// filtered row by roundoff), and (c) so is the simulated clock.
func TestDeepHaloAcrossBoundariesInvisible(t *testing.T) {
	g := grid.New(16, 24, 6)
	recorded := map[bool]map[[2]int]uint64{
		false: {{1, 1}: 0xa821f99afa36091b, {4, 1}: 0x8d671632daae7459, {4, 2}: 0xa7bf2f20f00da6cf},
		true:  {{1, 1}: 0x4e27d1fe007f1fcc, {4, 1}: 0xf93879196390180e, {4, 2}: 0xe8c240ddf475d61b},
	}
	// (c) Nothing the simulated clock charges depends on what is stored: the
	// critical-path time, the compute seconds summed over ranks (every
	// rank's charges, not just the slowest's), bytes and messages are the
	// recorded ones too, the same for both mirrors.
	type clock struct {
		sim, comp   float64
		bytes, msgs int64
	}
	clocks := map[[2]int]clock{
		{1, 1}: {0.0012069779999999998, 0.0012069779999999998, 0, 0},
		{4, 1}: {0.002680328000000004, 0.0020118240000000002, 843264, 364},
		{4, 2}: {0.0064833973333333654, 0.002901584, 1913856, 1308},
	}
	for _, shifted := range []bool{false, true} {
		cfg := testCfg(3)
		cfg.ShiftedPoleMirror = shifted
		var serial []float64
		for _, lay := range [][2]int{{1, 1}, {4, 1}, {4, 2}} {
			res := Run(Setup{Alg: AlgCommAvoid, PA: lay[0], PB: lay[1], Cfg: cfg}, g, comm.TianheLike(), testInit, 3)
			flat := FlattenState(g, res.Finals)
			if serial == nil {
				serial = flat
			}
			got := clock{sim: res.Agg.SimTime, bytes: res.Agg.BytesSent, msgs: res.Agg.MsgsSent}
			for _, c := range res.Agg.RankComp {
				got.comp += c
			}
			if want := clocks[lay]; runtime.GOARCH == "amd64" && got != want {
				t.Errorf("shifted=%v CA %dx%d: simulated clock %+v, recorded %+v", shifted, lay[0], lay[1], got, want)
			}
			scale := maxAbsVec(serial)
			for i, v := range flat {
				if d := math.Abs(v - serial[i]); !(d <= 1e-12*(1+scale)) {
					t.Errorf("shifted=%v CA %dx%d deviates from 1x1 by %g at %d", shifted, lay[0], lay[1], d, i)
					break
				}
			}
			h := fnv.New64a()
			for _, v := range flat {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			// Bit patterns are recorded on amd64; an architecture that
			// contracts a·b+c into FMA legitimately rounds differently.
			if want := recorded[shifted][lay]; runtime.GOARCH == "amd64" && h.Sum64() != want {
				t.Errorf("shifted=%v CA %dx%d: state hash %#x, recorded %#x — results moved", shifted, lay[0], lay[1], h.Sum64(), want)
			}
		}
	}
}

func TestCommAvoidTinyBlocksDeepHalo(t *testing.T) {
	// Blocks much smaller than the deep halo (the paper's own p = 1024
	// regime): one exchange round must still gather everything (halos span
	// several blocks) and the exact-C result must match the baseline.
	g := grid.New(16, 10, 4)
	cfg := testCfg(1) // halo depths (5, 3) over 2-row, 2-layer blocks
	cfg.ExactC = true
	base := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)
	ca := Run(Setup{Alg: AlgCommAvoid, PA: 5, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, 2)
	if d := MaxDiffGlobal(g, base.Finals, ca.Finals); d > 1e-7 {
		t.Errorf("tiny-block CA deviates from baseline by %g", d)
	}
	// Still exactly 2 exchange rounds per step.
	if got := (ca.Count.HaloExchanges - 2) / 2; got != 2 {
		t.Errorf("tiny-block CA exchanges/step = %d, want 2", got)
	}
}
