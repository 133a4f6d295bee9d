package dycore

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/grid"
	"cadycore/internal/state"
	"cadycore/internal/testutil"
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

func TestCommAvoidMatchesBaseline(t *testing.T) {
	g := testGrid()
	cfg := testCfg(1)
	base := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)

	// Without a step hook exact-C CA is the baseline bitwise: the same
	// operator sequence, only the halo/overlap/smoothing-fusion mechanics
	// differ.
	cfgExact := cfg
	cfgExact.ExactC = true
	for _, pp := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		ca := Run(Setup{Alg: AlgCommAvoid, PA: pp[0], PB: pp[1], Cfg: cfgExact}, g, comm.Zero(), testInit, 2)
		if d := MaxDiffGlobal(g, base.Finals, ca.Finals); d != 0 {
			t.Errorf("exact-C CA %dx%d deviates from baseline by %g, want bitwise", pp[0], pp[1], d)
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

// TestUnbalancedCommAvoidMatchesBaseline: exact-C CA on weighted row
// partitions is the baseline bitwise, as it is on uniform ones.
func TestUnbalancedCommAvoidMatchesBaseline(t *testing.T) {
	g := testGrid()
	cfg := testCfg(1)
	base := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)
	cfgExact := cfg
	cfgExact.ExactC = true
	for _, starts := range [][]int{
		{0, 3, 10},
		{0, 2, 8, 10},
	} {
		py := len(starts) - 1
		ca := Run(Setup{
			Alg: AlgCommAvoid, PA: py, PB: 2, Cfg: cfgExact, RowStarts: starts,
		}, g, comm.Zero(), testInit, 2)
		if d := MaxDiffGlobal(g, base.Finals, ca.Finals); d != 0 {
			t.Errorf("exact-C CA rows %v deviates from baseline by %g, want bitwise", starts, d)
		}
		if !ca.Finals[0].AllFinite() {
			t.Errorf("CA rows %v produced non-finite values", starts)
		}
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

func TestNoFusedSmoothingMatchesFused(t *testing.T) {
	// Fusing the smoothing into the adaptation exchange must not change the
	// result: S̃1 and S̃2 apply the full P2 to whole rows, so the split is
	// bitwise the plain smoothing.
	g := testGrid()
	cfg := testCfg(2)
	cfg.ExactC = true
	plain := cfg
	plain.NoFusedSmoothing = true
	a := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, 3)
	b := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: plain}, g, comm.Zero(), testInit, 3)
	if d := MaxDiffGlobal(g, a.Finals, b.Finals); d != 0 {
		t.Errorf("fused vs plain smoothing differ by %g (want bitwise match)", d)
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

func TestShiftedPoleMirror(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	cfg.ShiftedPoleMirror = true

	// Runs stable (TestLayoutOracle holds it in every layout with p_x = 1).
	a := Run(Setup{Alg: AlgCommAvoid, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 3)
	if !a.Finals[0].AllFinite() {
		t.Fatal("shifted-mirror run unstable")
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
// Nothing read them, so (a) every layout's final states, for the plain and
// the shifted pole mirror, are bit for bit the ones the symmetric, unclamped
// storage produced (row "deephalo/ca-<layout>" of the pin table,
// the shifted mirror's hash suffixed "_shifted": FNV-1a over the float bits
// of the global state, recorded at the commit before the clamp — re-recorded
// there, with the new kernels dropped into that commit, each time a kernel
// moved results: the staged FFT, then the division-free Â, L̃ and D(P), then
// the flux-form, mass-conserving δ⁴_θ of S̃; the Coriolis pair's sign was
// re-recorded on the working tree, whose storage TestCoversGolden pins,
// since that commit's field package no longer builds the current kernels),
// and (b) nothing the simulated clock charges depends on what is stored: the
// clock, the messages, bytes and collectives are the recorded ones too, the
// same for both mirrors.
func TestDeepHaloAcrossBoundariesInvisible(t *testing.T) {
	g := grid.New(16, 24, 6)
	for _, shifted := range []bool{false, true} {
		cfg := testCfg(3)
		cfg.ShiftedPoleMirror = shifted
		suffix := ""
		if shifted {
			suffix = "_shifted"
		}
		for _, lay := range [][2]int{{1, 1}, {4, 1}, {4, 2}} {
			res := Run(Setup{Alg: AlgCommAvoid, PA: lay[0], PB: lay[1], Cfg: cfg}, g, comm.TianheLike(), testInit, 3)
			testutil.Pin(t, pinsPath, fmt.Sprintf("deephalo/ca-%dx%d", lay[0], lay[1]), runPins(g, res, suffix, "hash"))
		}
	}
}

func TestCommAvoidTinyBlocksDeepHalo(t *testing.T) {
	// Blocks much smaller than the deep halo (the paper's own p = 1024
	// regime): one exchange round must still gather everything (halos span
	// several blocks) and the exact-C result is the baseline's, bitwise.
	g := grid.New(16, 10, 4)
	cfg := testCfg(1) // halo depths (5, 3) over 2-row, 2-layer blocks
	cfg.ExactC = true
	base := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)
	ca := Run(Setup{Alg: AlgCommAvoid, PA: 5, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, 2)
	if d := MaxDiffGlobal(g, base.Finals, ca.Finals); d != 0 {
		t.Errorf("tiny-block CA deviates from baseline by %g, want bitwise", d)
	}
	// Still exactly 2 exchange rounds per step.
	if got := (ca.Count.HaloExchanges - 2) / 2; got != 2 {
		t.Errorf("tiny-block CA exchanges/step = %d, want 2", got)
	}
}

// TestSetupCheck: every process grid a run cannot build is an error from
// Setup.Check, before any rank starts — including the exact pole mirror on a
// grid that splits longitude circles, which newCore would otherwise panic on.
// With MinPerRank it is the service's rule: two mesh points per rank along
// every decomposed extent.
func TestSetupCheck(t *testing.T) {
	g := grid.New(48, 24, 8)
	shifted := DefaultConfig()
	shifted.ShiftedPoleMirror = true
	for _, tc := range []struct {
		name string
		s    Setup
		per  int    // minimum points per rank (0 = 1)
		want string // "" = valid
	}{
		{"yz-2x2", Setup{Alg: AlgBaselineYZ, PA: 2, PB: 2, Cfg: DefaultConfig()}, 0, ""},
		{"ca-shifted-4x2", Setup{Alg: AlgCommAvoid, PA: 4, PB: 2, Cfg: shifted}, 0, ""},
		{"xy-shifted-1x2", Setup{Alg: AlgBaselineXY, PA: 1, PB: 2, Cfg: shifted}, 0, ""},
		{"xy-shifted-2x1", Setup{Alg: AlgBaselineXY, PA: 2, PB: 1, Cfg: shifted}, 0, "ShiftedPoleMirror requires p_x = 1"},
		{"3d-shifted-2x1x2", Setup{Alg: AlgBaseline3D, PA: 2, PB: 1, PC: 2, Cfg: shifted}, 0, "ShiftedPoleMirror requires p_x = 1"},
		{"yz-0x2", Setup{Alg: AlgBaselineYZ, PA: 0, PB: 2, Cfg: DefaultConfig()}, 0, "process grid 0x2"},
		{"yz-30x2", Setup{Alg: AlgBaselineYZ, PA: 30, PB: 2, Cfg: DefaultConfig()}, 0, "process grid 30x2"},
		{"ca-12x4-service", Setup{Alg: AlgCommAvoid, PA: 12, PB: 4, Cfg: DefaultConfig()}, MinPerRank, ""},
		{"ca-13x1-service", Setup{Alg: AlgCommAvoid, PA: 13, PB: 1, Cfg: DefaultConfig()}, MinPerRank, "(p_y ≤ ny/2, p_z ≤ nz/2)"},
		{"yz-1x5-service", Setup{Alg: AlgBaselineYZ, PA: 1, PB: 5, Cfg: DefaultConfig()}, MinPerRank, "process grid 1x5"},
		{"xy-25x1-service", Setup{Alg: AlgBaselineXY, PA: 25, PB: 1, Cfg: DefaultConfig()}, MinPerRank, "process grid 25x1"},
		{"3d-1x1x5-service", Setup{Alg: AlgBaseline3D, PA: 1, PB: 1, PC: 5, Cfg: DefaultConfig()}, MinPerRank, "process grid 1x1x5"},
		{"3d-2x2x0", Setup{Alg: AlgBaseline3D, PA: 2, PB: 2, Cfg: DefaultConfig()}, 0, "process grid 2x2x0"},
	} {
		err := tc.s.Check(g, max(tc.per, 1))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestAlgorithmNames: the four short names round-trip through encoding/json
// (the plan's "scheme" field), String keeps the long names, and an unknown
// name is a decode error that lists the four.
func TestAlgorithmNames(t *testing.T) {
	for name, long := range map[string]string{"ca": "comm-avoiding", "yz": "original-YZ", "xy": "original-XY", "3d": "original-3D"} {
		var a Algorithm
		if err := json.Unmarshal([]byte(`"`+name+`"`), &a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(a)
		if err != nil || string(b) != `"`+name+`"` || a.Name() != name || a.String() != long {
			t.Errorf("%s decodes to %v, encodes to %s (%v), named %s", name, a, b, err, a.Name())
		}
	}
	var a Algorithm
	err := json.Unmarshal([]byte(`"zz"`), &a)
	if err == nil || !strings.Contains(err.Error(), `"zz"`) || !strings.Contains(err.Error(), "ca, yz, xy or 3d") {
		t.Errorf("unknown name: error %v, want one naming it and listing ca, yz, xy or 3d", err)
	}
	if _, err := json.Marshal(Algorithm(7)); err == nil {
		t.Error("Algorithm(7) encoded without error")
	}
}
