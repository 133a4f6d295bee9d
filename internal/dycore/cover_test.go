package dycore

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/operators"
	"cadycore/internal/testutil"
	"cadycore/internal/topo"
)

// TestCoversGolden pins every rank's cover: the topology's halo widths, each
// exchanger's depths and the interior its overlapped update sweeps while
// messages fly, the compute rect of every update of a step, the cells every
// array the integrator allocates stores (Block.WithHalo) and the band's read
// set for every block. It runs harness.Quick()'s layouts (p = 4 and 8 for
// xy, yz, ca and 3d) plus serial, 2×2 and weighted-row layouts at 48×24×8
// and 96×48×12, and at 16×12×4, where deep halos cross both poles, under
// the default configuration (M = 2), M = 3 and each switch that could move
// a cover. testdata/covers.golden is rewritten under -update.
func TestCoversGolden(t *testing.T) {
	type variant struct {
		name string
		mut  func(*Config)
	}
	variants := []variant{
		{"default", func(*Config) {}},
		{"staged1", func(c *Config) { c.StageM = 1 }},
		{"m3", func(c *Config) { c.M = 3 }},
		{"m3-staged2", func(c *Config) { c.M, c.StageM = 3, 2 }},
		{"nofused", func(c *Config) { c.NoFusedSmoothing = true }},
		{"exactc", func(c *Config) { c.ExactC = true }},
		{"shifted", func(c *Config) { c.ShiftedPoleMirror = true }},
	}
	layouts := func(ny int) []Setup {
		return []Setup{
			{Alg: AlgBaselineYZ, PA: 1, PB: 1},
			{Alg: AlgCommAvoid, PA: 1, PB: 1},
			{Alg: AlgBaselineYZ, PA: 2, PB: 2},
			{Alg: AlgCommAvoid, PA: 2, PB: 2},
			{Alg: AlgBaselineXY, PA: 2, PB: 2},
			{Alg: AlgBaselineXY, PA: 2, PB: 4},
			{Alg: AlgBaselineYZ, PA: 4, PB: 1},
			{Alg: AlgBaselineYZ, PA: 4, PB: 2},
			{Alg: AlgCommAvoid, PA: 4, PB: 1},
			{Alg: AlgCommAvoid, PA: 4, PB: 2},
			{Alg: AlgCommAvoid, PA: 4, PB: 2, RowStarts: []int{0, ny / 8, ny / 4, 3 * ny / 4, ny}},
			{Alg: AlgBaseline3D, PA: 2, PB: 2, PC: 1},
			{Alg: AlgBaseline3D, PA: 2, PB: 4, PC: 1},
		}
	}
	var out strings.Builder
	for _, g := range []*grid.Grid{grid.New(16, 12, 4), grid.New(48, 24, 8), grid.New(96, 48, 12)} {
		for _, v := range variants {
			for _, s := range layouts(g.Ny) {
				s.Cfg = DefaultConfig()
				s.Cfg.M = 2
				v.mut(&s.Cfg)
				if s.Check(g, MinPerRank) != nil || s.RowStarts != nil && s.RowStarts[1] < MinPerRank {
					continue
				}
				fmt.Fprintf(&out, "== %dx%dx%d %s %s %dx%dx%d rows%v\n", g.Nx, g.Ny, g.Nz, v.name, s.Alg.Name(), s.PA, s.PB, s.PC, s.RowStarts)
				ranks := make([]string, s.Procs())
				comm.NewWorld(s.Procs(), comm.Zero()).Run(func(c *comm.Comm) {
					tp, ig := s.Build(c, g)
					ranks[c.Rank()] = coverLines(tp, ig)
				})
				for r, lines := range ranks {
					for _, l := range strings.Split(strings.TrimSuffix(lines, "\n"), "\n") {
						fmt.Fprintf(&out, "r%d %s\n", r, l)
					}
				}
			}
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "covers.golden"), out.String())
}

// coverLines renders one rank's cover: its depths, interiors, rects and read
// sets as the integrator holds them, and its storage as the integrator
// allocated it.
func coverLines(tp *topo.Topology, ig Integrator) string {
	var b strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	owned := tp.Block.Owned()
	line("halo %d %d %d", tp.Block.Hx, tp.Block.Hy, tp.Block.Hz)
	stores := func(c *core) {
		line("store xi %v", c.xi.B.WithHalo())
		line("store cache %v %v", c.cache.PWI.B.WithHalo(), c.cache.DBar.B.WithHalo())
		line("store work %v", c.eta1.B.WithHalo())
		line("store planes %v", advScratchStored(c.advSc))
	}
	switch x := ig.(type) {
	case *CommAvoid:
		c, cv := x.core, &x.cv
		for _, ex := range []*topo.Exchanger{x.deepEx, x.band.ex, x.advEx, x.smEx, x.stageEx} {
			if ex != nil {
				line("ex %s %+v", ex.Stats().Label, ex.ExchangeDepths())
			}
		}
		inner := func(label string, r field.Rect) { line("inner %s %v", label, r) }
		inner("ca-deep", cv.deep.inner)
		inner("ca-deep-fused", cv.fusedInner)
		if x.stageEx != nil {
			inner("ca-stage", cv.stage.inner)
		}
		inner("ca-adv", cv.adv.inner)
		inner("ca-smooth", cv.smooth.inner)
		line("rect s1 %v", cv.s1)
		line("rect s2 %v", cv.s2)
		for i, eta := range cv.eta {
			for n, r := range eta {
				line("rect eta%d.%d %v", i+1, n+1, r)
			}
		}
		for n, r := range cv.zeta {
			line("rect zeta%d %v", n+1, r)
		}
		line("rect smooth %v", owned)
		if x.origPhi != nil {
			line("store orig %v %v", x.origPhi.B.WithHalo(), x.origPsa.B.WithHalo())
		}
		line("store lvl %v", x.lvl.Level(tp.Block.K0).DU.B.WithHalo())
		if x.band.ex != nil && tp.World.Rank() == 0 {
			for r := 0; r < tp.World.Size(); r++ {
				line("band %d %v", r, cv.bandReads(tp.BlockOf(r)))
			}
		}
		stores(c)
	case *Baseline:
		c := x.core
		for _, ex := range []*topo.Exchanger{x.exStencil, x.exSmooth} {
			line("ex %s %+v", ex.Stats().Label, ex.ExchangeDepths())
		}
		line("inner baseline-stencil %v", x.cv.stencil.inner)
		line("inner baseline-smooth %v", x.cv.smooth.inner)
		line("rect every %v", owned)
		line("store tnd %v", x.tnd.B.WithHalo())
		stores(c)
	}
	return b.String()
}

// advScratchStored returns the cells L̃'s planes store (every plane shares
// one block).
func advScratchStored(sc *operators.AdvScratch) field.Rect {
	b := reflect.ValueOf(sc).Elem().FieldByName("uPhys").Elem().FieldByName("B")
	get := func(name string) int { return int(b.FieldByName(name).Int()) }
	blk := field.Block{
		Nx: get("Nx"), Ny: get("Ny"), Nz: get("Nz"),
		I0: get("I0"), I1: get("I1"), J0: get("J0"), J1: get("J1"), K0: get("K0"), K1: get("K1"),
		Hx: get("Hx"), Hy: get("Hy"), Hz: get("Hz"),
	}
	return blk.WithHalo()
}
