package dycore

import (
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/grid"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

// logFirstDiffs reports the first few pointwise differences between two
// flattened global states, with component names and (i, j, k) coordinates —
// the locator that pins down where a cross-decomposition divergence starts.
func logFirstDiffs(t *testing.T, g *grid.Grid, a, b []*state.State, max int) {
	t.Helper()
	fa := FlattenState(g, a)
	fb := FlattenState(g, b)
	n3 := g.Nx * g.Ny * g.Nz
	names := []string{"U", "V", "Phi", "Psa"}
	count := 0
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		if count < max {
			comp, rem := 3, i-3*n3
			if i < 3*n3 {
				comp, rem = i/n3, i%n3
			}
			k := rem / (g.Nx * g.Ny)
			j := (rem / g.Nx) % g.Ny
			ii := rem % g.Nx
			t.Logf("%s(%d,%d,%d): %v vs %v (diff %g)", names[comp], ii, j, k, fa[i], fb[i], fa[i]-fb[i])
		}
		count++
	}
	t.Logf("total differing points: %d", count)
}

// TestBaselineYZBitwisePerStep asserts the Y-Z baseline matches the serial
// run bitwise after each of the first steps (not just at the end — a
// per-step regression net that localizes a divergence to the step that
// introduced it).
func TestBaselineYZBitwisePerStep(t *testing.T) {
	g := testGrid()
	cfg := testCfg(1)
	for steps := 1; steps <= 2; steps++ {
		serial := Run(Setup{Alg: AlgBaselineYZ, PA: 1, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, steps)
		par := Run(Setup{Alg: AlgBaselineYZ, PA: 2, PB: 1, Cfg: cfg}, g, comm.Zero(), testInit, steps)
		if d := MaxDiffGlobal(g, serial.Finals, par.Finals); d != 0 {
			t.Errorf("steps=%d: Y-Z 2x1 deviates from serial by %g (want bitwise match)", steps, d)
			logFirstDiffs(t, g, serial.Finals, par.Finals, 12)
		}
	}
}

// TestSingleUpdateBitwise checks each update phase of the baseline in
// isolation — one adaptation update, one advection update, one full
// smoothing — across the y decomposition. A full-step mismatch that this
// test does not show implicates the glue (exchanges, halo fill, iteration
// structure) rather than the kernels.
func TestSingleUpdateBitwise(t *testing.T) {
	g := testGrid()
	cfg := testCfg(1)

	runOne := func(py int, apply func(b *Baseline, tp *topo.Topology)) []*state.State {
		w := comm.NewWorld(py, comm.Zero())
		finals := make([]*state.State, py)
		w.Run(func(c *comm.Comm) {
			hx, hy, hz := Setup{Alg: AlgBaselineYZ}.HaloWidths()
			tp := topo.New(c, g, 1, py, 1, hx, hy, hz)
			b := NewBaseline(cfg, g, tp)
			st := state.New(tp.Block)
			testInit(g, st)
			b.SetState(st)
			apply(b, tp)
			finals[c.Rank()] = b.eta1
		})
		return finals
	}

	phases := []struct {
		name  string
		apply func(b *Baseline, tp *topo.Topology)
	}{
		{"adapt", func(b *Baseline, tp *topo.Topology) {
			b.adaptTendencyOf(b.xi)
			b.apply(b.eta1, b.cfg.Dt1, false)
		}},
		{"advect", func(b *Baseline, tp *topo.Topology) {
			b.advectTendencyOf(b.xi)
			b.apply(b.eta1, b.cfg.Dt2, false)
		}},
		{"smooth", func(b *Baseline, tp *topo.Topology) {
			f3, f2 := b.exchangeFields(b.xi)
			b.exSmooth.Exchange(f3, f2)
			b.localFill(b.xi)
			b.smo.SmoothFull(b.xi, b.eta1, tp.Block.Owned())
		}},
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			a := runOne(1, ph.apply)
			b := runOne(2, ph.apply)
			if d := MaxDiffGlobal(g, a, b); d != 0 {
				t.Errorf("single %s update differs across decompositions by %g (want bitwise match)", ph.name, d)
				logFirstDiffs(t, g, a, b, 10)
			}
		})
	}
}
