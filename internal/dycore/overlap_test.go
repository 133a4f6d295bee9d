package dycore

import (
	"math"
	"sync/atomic"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
	"cadycore/internal/testutil"
)

// TestOverlapBitwiseAcrossLayouts is the tentpole equivalence property: the
// overlapped Begin/interior/Finish/shell split must be bitwise identical to
// the quiesced (NoOverlap) reference on every algorithm, decomposition and
// row partition — the split only reorders bookkeeping, never the per-point
// operation sequence. Both runs' final-state hashes and simulated clocks are
// pinned (row "overlap/<case>" of the pin table, the quiesced run's fields
// suffixed "_quiesced"): the critical-path time, the compute seconds summed over
// ranks and the hidden flight time, recorded before the four overlapped
// updates became one helper (core.overlapped). A charge moved across a
// Finish moves the first or the last of them. Both runs must send the
// recorded messages, bytes and collectives. Every row also runs under
// seamHook: the overlapped interior reads the local ghosts of the cells a
// hook writes before any exchange refills anything, so those ghosts must be
// refreshed when the step starts, as the quiesced run's whole-storage fills
// refresh them. The ca-2x3 rows (p_z = 3 on 48×24×12) run an untrimmed middle
// z-rank next to a bottom one that stores only the low levels the advection
// exchange writes (DESIGN §8 "Storage follows compute"), with a fresh Ĉ per
// update and staged.
func TestOverlapBitwiseAcrossLayouts(t *testing.T) {
	cases := []struct {
		name       string
		alg        Algorithm
		pa, pb, pc int
		rows       []int
		nofuse     bool
		mesh       *grid.Grid    // nil: testGrid(), 16×10×4
		mod        func(*Config) // nil: none
	}{
		{"serial", AlgBaselineYZ, 1, 1, 0, nil, false, nil, nil},
		{"yz-uniform", AlgBaselineYZ, 2, 2, 0, nil, false, nil, nil},
		{"yz-weighted", AlgBaselineYZ, 2, 2, 0, []int{0, 4, 10}, false, nil, nil},
		{"xy-uniform", AlgBaselineXY, 2, 2, 0, nil, false, nil, nil},
		{"xy-weighted", AlgBaselineXY, 2, 2, 0, []int{0, 4, 10}, false, nil, nil},
		{"3d-uniform", AlgBaseline3D, 2, 2, 2, nil, false, nil, nil},
		{"ca-uniform", AlgCommAvoid, 2, 2, 0, nil, false, nil, nil},
		{"ca-weighted", AlgCommAvoid, 2, 2, 0, []int{0, 4, 10}, false, nil, nil},
		// Plain smoothing every step: CommAvoid.plainSmooth on the same helper.
		{"ca-nofuse", AlgCommAvoid, 2, 2, 0, nil, true, nil, nil},
		{"ca-2x3", AlgCommAvoid, 2, 3, 0, nil, false, grid.New(48, 24, 12), nil},
		{"ca-2x3-exactc", AlgCommAvoid, 2, 3, 0, nil, false, grid.New(48, 24, 12), func(c *Config) { c.ExactC = true }},
		{"ca-2x3-stage1", AlgCommAvoid, 2, 3, 0, nil, false, grid.New(48, 24, 12), func(c *Config) { c.StageM = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.mesh
			if g == nil {
				g = testGrid()
			}
			cfg := testCfg(2)
			cfg.NoFusedSmoothing = tc.nofuse
			if tc.mod != nil {
				tc.mod(&cfg)
			}
			quiet := cfg
			quiet.NoOverlap = true
			set := Setup{Alg: tc.alg, PA: tc.pa, PB: tc.pb, PC: tc.pc, Cfg: cfg, RowStarts: tc.rows}
			qset := set
			qset.Cfg = quiet
			ov := Run(set, g, comm.TianheLike(), testInit, 3)
			qu := Run(qset, g, comm.TianheLike(), testInit, 3)
			hov := RunWithHook(set, g, comm.TianheLike(), testInit, 3, seamHook)
			hqu := RunWithHook(qset, g, comm.TianheLike(), testInit, 3, seamHook)
			if d := MaxDiffGlobal(g, hov.Finals, hqu.Finals); d != 0 {
				t.Errorf("hooked overlap deviates from hooked quiesced by %g, want bitwise identity", d)
			}
			if tc.pa*tc.pb*max(tc.pc, 1) > 1 {
				// The overlap must be visible in the simulated clock: hidden
				// flight time appears, and the critical path never grows.
				if h := ov.Agg.TotalHiddenTime(); h <= 0 {
					t.Errorf("overlapped run hid no communication (hidden = %g)", h)
				}
				if ov.Agg.SimTime > qu.Agg.SimTime {
					t.Errorf("overlapped clock %g exceeds quiesced clock %g",
						ov.Agg.SimTime, qu.Agg.SimTime)
				}
			}
			row := "overlap/" + tc.name
			testutil.Pin(t, pinsPath, row, runPins(g, ov, ""))
			testutil.Pin(t, pinsPath, row, runPins(g, qu, "_quiesced", "hash", "sim_s", "comp_s", "hidden_s"))
		})
	}
}

// seamHook scales the owned cells on the x seam (i = 0 and Nx−1), on the
// pole rows and on the top and bottom levels: the sources of every kind of
// local ghost (periodic wrap, pole mirror, vertical mirror).
func seamHook(g *grid.Grid, st *state.State, step int) {
	b := st.B
	seam := func(i, j int) bool { return i == 0 || i == g.Nx-1 || j == 0 || j == g.Ny-1 }
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				if seam(i, j) || k == 0 || k == g.Nz-1 {
					st.U.Set(i, j, k, 1.01*st.U.At(i, j, k))
					st.V.Set(i, j, k, 1.01*st.V.At(i, j, k))
					st.Phi.Set(i, j, k, 1.01*st.Phi.At(i, j, k))
				}
			}
		}
	}
	for j := b.J0; j < b.J1; j++ {
		for i := b.I0; i < b.I1; i++ {
			if seam(i, j) {
				st.Psa.Set(i, j, 1.01*st.Psa.At(i, j))
			}
		}
	}
}

// TestGhostsFollowSources pins the rule the trimmed fills rely on: every
// write refreshes the ghosts sourced in what it wrote — an update or smoothing
// stage those sourced in its rect, an exchange those sourced in the cells it
// received — and nothing else refreshes them. At every step boundary, before
// the Held–Suarez hook writes, ξ must therefore equal, over its whole
// storage, a clone of it refilled over the whole storage.
func TestGhostsFollowSources(t *testing.T) {
	g := grid.New(48, 24, 8)
	hs := heldsuarez.Standard()
	cases := []struct {
		name   string
		alg    Algorithm
		pa, pb int
		mod    func(*Config)
	}{
		{"yz-1x1", AlgBaselineYZ, 1, 1, nil},
		{"yz-4x2", AlgBaselineYZ, 4, 2, nil},
		{"yz-shiftedpoles", AlgBaselineYZ, 4, 2, func(c *Config) { c.ShiftedPoleMirror = true }},
		{"xy-2x2", AlgBaselineXY, 2, 2, nil},
		{"ca-4x2", AlgCommAvoid, 4, 2, nil},
		{"ca-stage1", AlgCommAvoid, 4, 2, func(c *Config) { c.StageM = 1 }},
		{"ca-nofuse", AlgCommAvoid, 4, 2, func(c *Config) { c.NoFusedSmoothing = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.M = 2
			if tc.mod != nil {
				tc.mod(&cfg)
			}
			var stale atomic.Bool
			hook := func(g *grid.Grid, st *state.State, step int) {
				ref := st.Clone()
				ref.FillLocalBounds(ref.B.WithHalo())
				for c, pair := range [4][2][]float64{
					{st.U.Data, ref.U.Data}, {st.V.Data, ref.V.Data},
					{st.Phi.Data, ref.Phi.Data}, {st.Psa.Data, ref.Psa.Data},
				} {
					for o, v := range pair[0] {
						if math.Float64bits(v) != math.Float64bits(pair[1][o]) && !stale.Swap(true) {
							t.Errorf("after step %d, component %d of block %+v has a stale ghost at storage offset %d: %g, refilled %g",
								step+1, c, st.B, o, v, pair[1][o])
						}
					}
				}
				hs.Apply(g, st, cfg.Dt2)
			}
			RunWithHook(Setup{Alg: tc.alg, PA: tc.pa, PB: tc.pb, Cfg: cfg}, g, comm.TianheLike(),
				heldsuarez.InitialState, 4, hook)
		})
	}
}

// TestStagedExchangeMatchesMonolithic checks the staged-exchange mode's
// schedule: a halo of depth s < M refreshed ⌈M/s⌉ times per step does more
// exchange rounds than the single deep exchange, and s = M is the monolithic
// schedule (StageM = 0), bitwise. That every s < M ends bitwise where the
// unstaged run does is the schedule oracle's (TestLayoutOracle).
func TestStagedExchangeMatchesMonolithic(t *testing.T) {
	g := testGrid()
	cfg := testCfg(3)
	mono := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.TianheLike(), testInit, 3)

	for _, s := range []int{1, 2} {
		staged := cfg
		staged.StageM = s
		res := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: staged}, g, comm.TianheLike(), testInit, 3)
		if res.Count.HaloExchanges <= mono.Count.HaloExchanges {
			t.Errorf("stage depth %d did %d exchange rounds, want more than the monolithic %d",
				s, res.Count.HaloExchanges, mono.Count.HaloExchanges)
		}
	}

	// Full-depth staging is the monolithic schedule, bitwise.
	full := cfg
	full.StageM = cfg.M
	res := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: full}, g, comm.TianheLike(), testInit, 3)
	if d := MaxDiffGlobal(g, mono.Finals, res.Finals); d != 0 {
		t.Errorf("StageM = M deviates from monolithic by %g, want bitwise identity", d)
	}
	if res.Count.HaloExchanges != mono.Count.HaloExchanges {
		t.Errorf("StageM = M did %d exchange rounds, monolithic did %d",
			res.Count.HaloExchanges, mono.Count.HaloExchanges)
	}
}

// TestOverlapBitwiseUnderJitter is the straggler soak: message jitter and a
// slow rank stretch the simulated clock but must not leak into the numerics
// — the overlapped split reads halo cells only after Finish drained them,
// however late the messages arrive. The Held–Suarez hook keeps the
// hook-mutates-ghost-currency path (the historical failure mode) exercised.
func TestOverlapBitwiseUnderJitter(t *testing.T) {
	g := grid.New(32, 16, 8)
	cfg := testCfg(2)
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, cfg.Dt2) }
	inj := fault.New(fault.Plan{
		Seed:       7,
		Stragglers: []fault.Straggler{{Rank: 1, Scale: 1.7}},
		Jitter:     &fault.Jitter{Prob: 0.4, MaxDelay: 2e-4},
	})
	for _, alg := range []Algorithm{AlgBaselineYZ, AlgCommAvoid} {
		set := Setup{Alg: alg, PA: 2, PB: 2, Cfg: cfg}
		clean, _ := RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 4,
			RunOpts{Hook: hook})
		jit, _ := RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 4,
			RunOpts{Hook: hook, Faults: inj.CommFaults(4)})
		if d := MaxDiffGlobal(g, clean.Finals, jit.Finals); d != 0 {
			t.Errorf("alg %v: jitter changed the numerics by %g, want bitwise identity", alg, d)
		}
		if jit.Agg.SimTime <= clean.Agg.SimTime {
			t.Errorf("alg %v: jittered clock %g not above fault-free clock %g",
				alg, jit.Agg.SimTime, clean.Agg.SimTime)
		}
	}
}

// TestOverlapStatsExposed checks the per-exchanger accounting surfaced
// through RunResult.Exch: every exchanger Begin has a matching Finish, and
// the overlapped run accumulates hidden seconds the quiesced run does not.
func TestOverlapStatsExposed(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	quiet := cfg
	quiet.NoOverlap = true
	ov := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.TianheLike(), testInit, 3)
	qu := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: quiet}, g, comm.TianheLike(), testInit, 3)
	if len(ov.Exch) == 0 {
		t.Fatal("no per-exchanger stats reported")
	}
	hidden := 0.0
	for _, ex := range ov.Exch {
		if ex.Begins != ex.Finishes {
			t.Errorf("exchanger %q: %d Begins vs %d Finishes", ex.Label, ex.Begins, ex.Finishes)
		}
		hidden += ex.HiddenSec
	}
	if hidden <= 0 {
		t.Error("overlapped run reports no hidden seconds in exchanger stats")
	}
	if f := ov.Agg.OverlapFraction(); f <= qu.Agg.OverlapFraction() {
		t.Errorf("overlap fraction %g not above quiesced %g", f, qu.Agg.OverlapFraction())
	}

	// The pinned figure cell: the comm-avoiding scheme at P=16 on 96×48×12,
	// M=3, Held–Suarez, one step — 8×2 is the y×z factorisation the figure
	// sweeps pick there (harness.YZFactors). Measured 18.7% of simulated
	// communication time exposed and 3.827 vs 3.887 ms per step; a larger
	// exposed share, or a quiesced step that is no slower, means the
	// Begin/interior/Finish split stopped hiding anything.
	fg := grid.New(96, 48, 12)
	fcfg := DefaultConfig()
	fcfg.Dt1, fcfg.Dt2 = 30, 180
	fquiet := fcfg
	fquiet.NoOverlap = true
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, fcfg.Dt2) }
	fov := RunWithHook(Setup{Alg: AlgCommAvoid, PA: 8, PB: 2, Cfg: fcfg}, fg, comm.TianheLike(), heldsuarez.InitialState, 1, hook)
	fqu := RunWithHook(Setup{Alg: AlgCommAvoid, PA: 8, PB: 2, Cfg: fquiet}, fg, comm.TianheLike(), heldsuarez.InitialState, 1, hook)
	if exposed := 1 - fov.Agg.OverlapFraction(); exposed > 0.25 {
		t.Errorf("figure cell: exposed share %.3f of simulated communication time above the pinned 0.25", exposed)
	}
	if fov.Agg.SimTime >= fqu.Agg.SimTime {
		t.Errorf("figure cell: overlapped step %.3f ms not faster than quiesced %.3f ms",
			fov.Agg.SimTime*1e3, fqu.Agg.SimTime*1e3)
	}
}
