package dycore

import (
	"reflect"
	"runtime"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// stepAllocs builds a single-rank integrator, warms it up, and measures the
// heap allocations of a steady-state Step. testing.AllocsPerRun counts
// process-global mallocs, so the measurement only makes sense on one rank
// with serial tiling (Workers ≤ 1).
func stepAllocs(t *testing.T, alg Algorithm, cfg Config) float64 {
	t.Helper()
	g := testGrid()
	s := Setup{Alg: alg, PA: 1, PB: 1, Cfg: cfg}
	var allocs float64
	w := comm.NewWorld(1, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp, ig := s.Build(c, g)
		st := state.New(tp.Block)
		testInit(g, st)
		ig.(StateSetter).SetState(st)
		// Warm-up: the first steps grow the exchange buffers and any
		// lazily sized scratch to their steady-state capacity.
		ig.Step()
		ig.Step()
		allocs = testing.AllocsPerRun(3, ig.Step)
	})
	return allocs
}

// TestStepZeroAllocBaselineYZ asserts the steady-state baseline step
// performs no heap allocations (ISSUE: zero-allocation kernel engine).
func TestStepZeroAllocBaselineYZ(t *testing.T) {
	if a := stepAllocs(t, AlgBaselineYZ, testCfg(2)); a != 0 {
		t.Fatalf("baseline-YZ steady-state Step allocates %v times per run, want 0", a)
	}
}

// TestStepZeroAllocCommAvoid asserts the steady-state communication-avoiding
// step performs no heap allocations.
func TestStepZeroAllocCommAvoid(t *testing.T) {
	if a := stepAllocs(t, AlgCommAvoid, testCfg(2)); a != 0 {
		t.Fatalf("comm-avoiding steady-state Step allocates %v times per run, want 0", a)
	}
}

// TestWorkersBitwiseEquivalent asserts the intra-rank tiling knob changes
// neither the results (bitwise) nor the simulated metrics: work counts are
// preserved across the k-chunk split and the Psa parts run exactly once.
func TestWorkersBitwiseEquivalent(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	ref := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}, g, comm.Zero(), testInit, 2)

	for _, nw := range []int{2, 3, 4} {
		cfgW := cfg
		cfgW.Workers = nw
		got := Run(Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfgW}, g, comm.Zero(), testInit, 2)
		if d := MaxDiffGlobal(g, ref.Finals, got.Finals); d != 0 {
			t.Errorf("Workers=%d: state deviates from serial by %g (want bitwise match)", nw, d)
		}
		if !reflect.DeepEqual(got.Agg, ref.Agg) {
			t.Errorf("Workers=%d: aggregate metrics differ\n got %+v\nwant %+v", nw, got.Agg, ref.Agg)
		}
		if got.Count != ref.Count {
			t.Errorf("Workers=%d: counters differ\n got %+v\nwant %+v", nw, got.Count, ref.Count)
		}
	}
}

// TestWorkersBaselineBitwiseEquivalent covers the baseline integrator's
// tiled kernels (adaptation, advection, D(P)) the same way.
func TestWorkersBaselineBitwiseEquivalent(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	ref := Run(Setup{Alg: AlgBaselineYZ, PA: 2, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, 2)

	cfgW := cfg
	cfgW.Workers = 3
	got := Run(Setup{Alg: AlgBaselineYZ, PA: 2, PB: 1, Cfg: cfgW}, g, comm.Zero(), testInit, 2)
	if d := MaxDiffGlobal(g, ref.Finals, got.Finals); d != 0 {
		t.Errorf("Workers=3 baseline: state deviates by %g (want bitwise match)", d)
	}
	if !reflect.DeepEqual(got.Agg, ref.Agg) {
		t.Errorf("Workers=3 baseline: aggregate metrics differ\n got %+v\nwant %+v", got.Agg, ref.Agg)
	}
}

// TestStepSteadyStateBytesMultiRank measures steady-state allocation where
// messages actually flow — the 1×1 tests above send nothing, so they cannot
// see what the transport allocates. Every rank runs two warm-up steps, all
// ranks meet at a barrier, and the process-wide runtime.MemStats.TotalAlloc
// delta over the next ten steps of the whole world must stay within 64 KiB
// per step: message payloads (halo exchanges and the collectives' internal
// receives alike) come from the world's free list instead of a fresh make
// per message.
func TestStepSteadyStateBytesMultiRank(t *testing.T) {
	const steps, budget = 10, 64 << 10
	g := grid.New(32, 16, 8)
	for _, tc := range []struct {
		name string
		s    Setup
	}{
		{"ca-2x2", Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: testCfg(2)}},
		{"yz-2x2", Setup{Alg: AlgBaselineYZ, PA: 2, PB: 2, Cfg: testCfg(2)}},
		{"xy-2x2", Setup{Alg: AlgBaselineXY, PA: 2, PB: 2, Cfg: testCfg(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			w := comm.NewWorld(tc.s.Procs(), comm.Zero())
			w.Run(func(c *comm.Comm) {
				tp, ig := tc.s.Build(c, g)
				st := state.New(tp.Block)
				testInit(g, st)
				ig.(StateSetter).SetState(st)
				ig.Step()
				ig.Step()
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				c.Barrier()
				for i := 0; i < steps; i++ {
					ig.Step()
				}
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
				c.Barrier()
			})
			perStep := (after.TotalAlloc - before.TotalAlloc) / steps
			t.Logf("%s: %d B/step over the whole world", tc.name, perStep)
			if perStep > budget {
				t.Errorf("%s steady state allocates %d B per step, want ≤ %d", tc.name, perStep, budget)
			}
		})
	}
}
