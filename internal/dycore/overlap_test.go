package dycore

import (
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// TestOverlapBitwiseAcrossLayouts is the tentpole equivalence property: the
// overlapped Begin/interior/Finish/shell split must be bitwise identical to
// the quiesced (NoOverlap) reference on every algorithm, decomposition and
// row partition — the split only reorders bookkeeping, never the per-point
// operation sequence.
func TestOverlapBitwiseAcrossLayouts(t *testing.T) {
	g := testGrid() // 16×10×4
	cases := []struct {
		name       string
		alg        Algorithm
		pa, pb, pc int
		rows       []int
	}{
		{"serial", AlgBaselineYZ, 1, 1, 0, nil},
		{"yz-uniform", AlgBaselineYZ, 2, 2, 0, nil},
		{"yz-weighted", AlgBaselineYZ, 2, 2, 0, []int{0, 4, 10}},
		{"xy-uniform", AlgBaselineXY, 2, 2, 0, nil},
		{"xy-weighted", AlgBaselineXY, 2, 2, 0, []int{0, 4, 10}},
		{"3d-uniform", AlgBaseline3D, 2, 2, 2, nil},
		{"ca-uniform", AlgCommAvoid, 2, 2, 0, nil},
		{"ca-weighted", AlgCommAvoid, 2, 2, 0, []int{0, 4, 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg(2)
			quiet := cfg
			quiet.NoOverlap = true
			set := Setup{Alg: tc.alg, PA: tc.pa, PB: tc.pb, PC: tc.pc, Cfg: cfg, RowStarts: tc.rows}
			qset := set
			qset.Cfg = quiet
			ov := Run(set, g, comm.TianheLike(), testInit, 3)
			qu := Run(qset, g, comm.TianheLike(), testInit, 3)
			if d := MaxDiffGlobal(g, ov.Finals, qu.Finals); d != 0 {
				t.Errorf("overlap deviates from quiesced by %g, want bitwise identity", d)
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
		})
	}
}

// TestStagedExchangeMatchesMonolithic checks the staged-exchange mode: a
// halo of depth s < M refreshed ⌈M/s⌉ times per step stays within
// approximation error of the single deep exchange (the mid-step refreshes
// only make halo data fresher), and s = M (or 0) recovers the monolithic
// schedule bitwise.
func TestStagedExchangeMatchesMonolithic(t *testing.T) {
	g := testGrid()
	cfg := testCfg(3)
	mono := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.TianheLike(), testInit, 3)
	scale := maxAbsVec(FlattenState(g, mono.Finals))

	for _, s := range []int{1, 2} {
		staged := cfg
		staged.StageM = s
		res := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: staged}, g, comm.TianheLike(), testInit, 3)
		if d := MaxDiffGlobal(g, mono.Finals, res.Finals); d > 1e-6*(1+scale) {
			t.Errorf("stage depth %d deviates from monolithic by %g (scale %g)", s, d, scale)
		}
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
