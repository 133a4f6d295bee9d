package dycore

import (
	"reflect"
	"runtime"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/operators"
	"cadycore/internal/state"
)

// TestWorkingSetPerRank guards what a rank keeps alive. Each rank allocates ξ
// plus one work state (the midpoint overwrites η1, DESIGN §8 "Two work
// states"), L̃'s scratch is 2-D planes, D(P) lives in the PWI of the Ĉ it
// feeds (DESIGN §8 "Owned-size run boundaries"), and storage follows compute
// (DESIGN §8 "Storage follows compute"): one Ĉ cache, the tendency and L̃'s
// planes on the extent they are computed on, and on a bottom CA z-rank only
// the three low-z levels the advection exchange writes. CA streams each
// update one level at a time (DESIGN §8 "One level of tendency"), so its
// tendency stores two levels. The live heap a 4×2 world adds at 96×48×12,
// M = 3, after SetState and one Step stays under a budget per rank: it reads
// 2.73 MB (CA) and 1.28 MB (YZ) against 3.0 and 1.5. It read 2.90 MB (CA)
// while S̃2's originals stored its whole rect grown by two rows rather than
// the rows it reads, 3.46 MB (CA) while CA's tendency covered its whole
// compute extent, 10.0 MB (CA) and
// 3.0 MB (YZ) before the work state and the planes, 6.3 and 1.9 MB while
// D(P) had its own array, and 6.0 and 1.8 MB with two Ĉ caches and deep-halo
// tendencies; a third state, a second cache, a 3-D scratch array or a deep
// CA tendency is back if it fails.
func TestWorkingSetPerRank(t *testing.T) {
	states, f3s, cres := 0, 0, 0
	ct := reflect.TypeOf(core{})
	for i := 0; i < ct.NumField(); i++ {
		switch ct.Field(i).Type {
		case reflect.TypeOf((*state.State)(nil)):
			states++
		case reflect.TypeOf((*field.F3)(nil)):
			f3s++
		case reflect.TypeOf((*operators.CRes)(nil)):
			cres++
		}
	}
	if states != 2 {
		t.Errorf("core holds %d *state.State fields, want 2 (ξ and one work state)", states)
	}
	if f3s != 0 {
		t.Errorf("core holds %d *field.F3 fields, want none (D(P) is written into the Ĉ it feeds)", f3s)
	}
	if cres != 1 {
		t.Errorf("core holds %d *operators.CRes fields, want 1 (one Ĉ cache)", cres)
	}

	g := grid.New(96, 48, 12)
	for _, tc := range []struct {
		name   string
		s      Setup
		budget float64 // MB of live heap per rank
	}{
		{"ca-4x2", Setup{Alg: AlgCommAvoid, PA: 4, PB: 2, Cfg: DefaultConfig()}, 3.0},
		{"yz-4x2", Setup{Alg: AlgBaselineYZ, PA: 4, PB: 2, Cfg: DefaultConfig()}, 1.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveHeap()
			var live int64
			w := comm.NewWorld(tc.s.Procs(), comm.Zero())
			w.Run(func(c *comm.Comm) {
				tp, ig := tc.s.Build(c, g)
				st := state.New(state.OwnedBlock(tp.Block))
				testInit(g, st)
				ig.(StateSetter).SetState(st)
				ig.Step()
				if ca, ok := ig.(*CommAvoid); ok {
					if n := tendencyLevels(ca); n > 2 {
						t.Errorf("rank %d: CA's tendency stores %d levels, want at most 2", c.Rank(), n)
					}
				}
				if b := tp.Block; tc.s.Alg == AlgCommAvoid && b.K0 > 0 && b.K1 == b.Nz {
					// A bottom z-rank stores the three levels below K0 the
					// advection exchange writes, not the deep halo's 3M.
					if _, _, k0 := ig.Xi().U.Origin(); k0 != b.K0-3 {
						t.Errorf("bottom rank %d: ξ storage starts at level %d, want K0−3 = %d", c.Rank(), k0, b.K0-3)
					}
				}
				barrier(c)
				if c.Rank() == 0 {
					live = liveHeap() - before
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

// tendencyLevels returns how many levels of dU, dV and dΦ CA's streamed
// tendency stores: the stored levels of the distinct arrays its Level hands
// out over the whole column, per component.
func tendencyLevels(ca *CommAvoid) int {
	seen := map[*float64]bool{}
	levels := 0
	for k := 0; k < ca.g.Nz; k++ {
		t := ca.lvl.Level(k)
		for _, f := range t.Fields()[:3] {
			if !seen[&f.Data[0]] {
				seen[&f.Data[0]] = true
				w := f.B.WithHalo()
				levels += w.K1 - w.K0
			}
		}
	}
	return levels / 3
}

// TestFinalsHoldOwnedCells guards what a finished run leaves behind. Each
// RunResult.Finals entry stores resultBlock (the owned block plus one kernel
// application's halo; TestSetStateReadsOwnedCells checks its owned-size
// Carry): CA's results are copies of ξ's cells there, so a held result pins
// none of the integrator's deep storage. A held CA 4×2 result at 96×48×12, M = 3, with
// its world gone keeps 3.24 MB of live heap (2.6 MB of states, 0.6 MB of
// Carry) against a 3.5 MB budget; it kept 7.75 MB while Finals were the
// integrators' ξ.
func TestFinalsHoldOwnedCells(t *testing.T) {
	g := grid.New(96, 48, 12)
	s := Setup{Alg: AlgCommAvoid, PA: 4, PB: 2, Cfg: DefaultConfig()}
	before := liveHeap()
	res := Run(s, g, comm.Zero(), testInit, 1)
	held := float64(liveHeap()-before) / 1e6
	for r, fin := range res.Finals {
		if fin.B != resultBlock(fin.B) {
			t.Errorf("rank %d: result on %+v, want resultBlock's halo", r, fin.B)
		}
	}
	t.Logf("held CA 4x2 result: %.2f MB live heap", held)
	if held > 3.5 {
		t.Errorf("a held result keeps %.2f MB, want ≤ 3.5", held)
	}
	runtime.KeepAlive(res)
}

// liveHeap returns the live heap after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
