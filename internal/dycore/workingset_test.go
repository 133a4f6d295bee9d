package dycore

import (
	"reflect"
	"runtime"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// TestWorkingSetPerRank guards what a rank keeps alive. Each rank allocates ξ
// plus one work state (the midpoint overwrites η1, DESIGN §8 "Two work
// states"), and L̃'s scratch is 2-D planes, so the live heap a 4×2 world
// adds at 96×48×12, M = 3, after SetState and one Step stays under a budget
// per rank. Before the work state and the planes it read 10.0 MB (CA) and
// 3.0 MB (YZ); a third state or a 3-D scratch array is back if it fails.
func TestWorkingSetPerRank(t *testing.T) {
	states := 0
	ct := reflect.TypeOf(core{})
	for i := 0; i < ct.NumField(); i++ {
		if ct.Field(i).Type == reflect.TypeOf((*state.State)(nil)) {
			states++
		}
	}
	if states != 2 {
		t.Errorf("core holds %d *state.State fields, want 2 (ξ and one work state)", states)
	}

	g := grid.New(96, 48, 12)
	for _, tc := range []struct {
		name   string
		s      Setup
		budget float64 // MB of live heap per rank
	}{
		{"ca-4x2", Setup{Alg: AlgCommAvoid, PA: 4, PB: 2, Cfg: DefaultConfig()}, 7.5},
		{"yz-4x2", Setup{Alg: AlgBaselineYZ, PA: 4, PB: 2, Cfg: DefaultConfig()}, 2.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap := func() int64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return int64(ms.HeapAlloc)
			}
			before := heap()
			var live int64
			w := comm.NewWorld(tc.s.Procs(), comm.Zero())
			w.Run(func(c *comm.Comm) {
				tp, ig := tc.s.Build(c, g)
				st := state.New(tp.Block)
				testInit(g, st)
				ig.(StateSetter).SetState(st)
				ig.Step()
				barrier(c)
				if c.Rank() == 0 {
					live = heap() - before
				}
				barrier(c)
				runtime.KeepAlive(ig)
			})
			perRank := float64(live) / float64(tc.s.Procs()) / 1e6
			t.Logf("%s: %.2f MB live heap per rank", tc.name, perRank)
			if perRank > tc.budget {
				t.Errorf("%s keeps %.2f MB per rank, want ≤ %.1f", tc.name, perRank, tc.budget)
			}
		})
	}
}
