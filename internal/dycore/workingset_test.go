package dycore

import (
	"reflect"
	"runtime"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// TestWorkingSetPerRank guards what a rank keeps alive. Each rank allocates ξ
// plus one work state (the midpoint overwrites η1, DESIGN §8 "Two work
// states"), L̃'s scratch is 2-D planes, and D(P) lives in the PWI of the Ĉ it
// feeds (DESIGN §8 "Owned-size run boundaries"), so the live heap a 4×2
// world adds at 96×48×12, M = 3, after SetState and one Step stays under a
// budget per rank. It read 10.0 MB (CA) and 3.0 MB (YZ) before the work state
// and the planes, 6.3 and 1.9 MB while D(P) had its own array; a third state
// or a 3-D scratch array is back if it fails.
func TestWorkingSetPerRank(t *testing.T) {
	states, f3s := 0, 0
	ct := reflect.TypeOf(core{})
	for i := 0; i < ct.NumField(); i++ {
		switch ct.Field(i).Type {
		case reflect.TypeOf((*state.State)(nil)):
			states++
		case reflect.TypeOf((*field.F3)(nil)):
			f3s++
		}
	}
	if states != 2 {
		t.Errorf("core holds %d *state.State fields, want 2 (ξ and one work state)", states)
	}
	if f3s != 0 {
		t.Errorf("core holds %d *field.F3 fields, want none (D(P) is written into the Ĉ it feeds)", f3s)
	}

	g := grid.New(96, 48, 12)
	for _, tc := range []struct {
		name   string
		s      Setup
		budget float64 // MB of live heap per rank
	}{
		{"ca-4x2", Setup{Alg: AlgCommAvoid, PA: 4, PB: 2, Cfg: DefaultConfig()}, 6.8},
		{"yz-4x2", Setup{Alg: AlgBaselineYZ, PA: 4, PB: 2, Cfg: DefaultConfig()}, 2.1},
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
				st := state.New(state.OwnedBlock(tp.Block))
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
