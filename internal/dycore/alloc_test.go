package dycore

import (
	"runtime"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// stepAllocs builds a single-rank integrator, warms it up, and measures the
// heap allocations of a steady-state Step. testing.AllocsPerRun counts
// process-global mallocs, so the measurement only makes sense on one rank.
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

// withCfg returns testCfg(m) with set applied.
func withCfg(m int, set func(*Config)) Config {
	cfg := testCfg(m)
	set(&cfg)
	return cfg
}

// zeroAllocSteps is one table over every scheme and every configuration
// branch of Step. The Θ model prices a step as pure arithmetic plus
// messages, so a hidden allocation (and the GC work it drags in) would skew
// every measured t_comp.
var zeroAllocSteps = []struct {
	name string
	alg  Algorithm
	cfg  Config
}{
	{"yz", AlgBaselineYZ, testCfg(2)},
	{"yz-nooverlap", AlgBaselineYZ, withCfg(2, func(c *Config) { c.NoOverlap = true })},
	{"yz-shiftedpoles", AlgBaselineYZ, withCfg(2, func(c *Config) { c.ShiftedPoleMirror = true })},
	{"xy", AlgBaselineXY, testCfg(2)},
	{"ca", AlgCommAvoid, testCfg(2)},
	{"ca-nooverlap", AlgCommAvoid, withCfg(3, func(c *Config) { c.NoOverlap = true })},
	{"ca-exactc", AlgCommAvoid, withCfg(3, func(c *Config) { c.ExactC = true })},
	{"ca-nofuse", AlgCommAvoid, withCfg(3, func(c *Config) { c.NoFusedSmoothing = true })},
	{"ca-stage1", AlgCommAvoid, withCfg(3, func(c *Config) { c.StageM = 1 })},
	{"ca-shiftedpoles", AlgCommAvoid, withCfg(2, func(c *Config) { c.ShiftedPoleMirror = true })},
}

// checkZeroAllocSteps asserts that the steady-state Step of every
// zeroAllocSteps row of scheme alg performs no heap allocations.
func checkZeroAllocSteps(t *testing.T, alg Algorithm) {
	for _, tc := range zeroAllocSteps {
		if tc.alg != alg {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			if a := stepAllocs(t, tc.alg, tc.cfg); a != 0 {
				t.Errorf("steady-state Step allocates %v times per run, want 0", a)
			}
		})
	}
}

func TestStepZeroAllocBaselineYZ(t *testing.T) { checkZeroAllocSteps(t, AlgBaselineYZ) }
func TestStepZeroAllocBaselineXY(t *testing.T) { checkZeroAllocSteps(t, AlgBaselineXY) }
func TestStepZeroAllocCommAvoid(t *testing.T)  { checkZeroAllocSteps(t, AlgCommAvoid) }

// TestStepSteadyStateBytesMultiRank measures steady-state allocation where
// messages actually flow — the 1×1 tests above send nothing, so they cannot
// see what the transport allocates. Every rank runs two warm-up steps, all
// ranks meet at a barrier, and the process-wide runtime.MemStats.TotalAlloc
// delta over the next ten steps of the whole world must stay within 64 KiB
// per step: a message (halo exchanges and the collectives' internal ones
// alike) is a loan the receiver copies out of the sender's memory, so none
// allocates a payload.
// barrier returns once every rank of c has entered it: a ring Allgather
// completes on a rank only after every peer's block has arrived.
func barrier(c *comm.Comm) { c.Allgather(make([]float64, 1), make([]float64, c.Size())) }

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
				barrier(c)
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				barrier(c)
				for i := 0; i < steps; i++ {
					ig.Step()
				}
				barrier(c)
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
				barrier(c)
			})
			perStep := (after.TotalAlloc - before.TotalAlloc) / steps
			t.Logf("%s: %d B/step over the whole world", tc.name, perStep)
			if perStep > budget {
				t.Errorf("%s steady state allocates %d B per step, want ≤ %d", tc.name, perStep, budget)
			}
		})
	}
}
