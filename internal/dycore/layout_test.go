package dycore_test

import (
	"fmt"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// layoutSteps is the length of every run of the layout oracle.
const layoutSteps = 4

// layoutSchemes are the scheme variants the layout oracle covers, each with
// the layouts it runs in past its 1×1 run. Setup's PA, PB, PC are (p_y, p_z)
// for the Y-Z schemes, (p_x, p_y) for X-Y and (p_x, p_y, p_z) for 3-D.
var layoutSchemes = []struct {
	name string
	alg  dycore.Algorithm
	mod  func(*dycore.Config)
}{
	{"yz", dycore.AlgBaselineYZ, nil},
	{"xy", dycore.AlgBaselineXY, nil},
	{"3d", dycore.AlgBaseline3D, nil},
	{"ca", dycore.AlgCommAvoid, nil},
	{"ca-nofuse", dycore.AlgCommAvoid, func(c *dycore.Config) { c.NoFusedSmoothing = true }},
	{"ca-exactc", dycore.AlgCommAvoid, func(c *dycore.Config) { c.ExactC = true }},
	{"ca-stage1", dycore.AlgCommAvoid, func(c *dycore.Config) { c.StageM = 1 }},
}

// oracleLayouts returns the layouts of alg on g: harness.Quick()'s process
// counts (4 and 8) in every split of the scheme's directions, a weighted row
// partition and, for the Y-Z schemes, a 2×3 split whose z blocks are not
// nodes of Ĉ's summation tree; for 3-D, grids split in all three.
func oracleLayouts(alg dycore.Algorithm, g *grid.Grid) []dycore.Setup {
	var out []dycore.Setup
	switch alg {
	case dycore.AlgBaselineXY:
		for _, l := range [][2]int{{2, 2}, {4, 1}, {4, 2}, {2, 4}} {
			out = append(out, dycore.Setup{PA: l[0], PB: l[1]})
		}
		out = append(out, dycore.Setup{PA: 2, PB: 2, RowStarts: []int{0, g.Ny / 4, g.Ny}})
	case dycore.AlgBaseline3D:
		out = append(out, dycore.Setup{PA: 2, PB: 2, PC: 2}, dycore.Setup{PA: 1, PB: 4, PC: 2})
	default:
		for _, l := range [][2]int{{4, 1}, {3, 1}, {1, 2}, {1, 4}, {4, 2}, {8, 1}, {2, 4}, {2, 3}} {
			out = append(out, dycore.Setup{PA: l[0], PB: l[1]})
		}
		out = append(out, dycore.Setup{PA: 4, PB: 2, RowStarts: []int{0, 3, 6, 15, g.Ny}})
	}
	return out
}

// layoutName names a layout in a subtest: "4x2", "2x2x2", "4x2-rows[0 3 …]".
func layoutName(s dycore.Setup) string {
	n := fmt.Sprintf("%dx%d", s.PA, s.PB)
	if s.PC > 0 {
		n += fmt.Sprintf("x%d", s.PC)
	}
	if s.RowStarts != nil {
		n += fmt.Sprintf("-rows%v", s.RowStarts)
	}
	return n
}

// TestLayoutOracle is the one statement of layout invariance: a run ends
// bitwise where the same scheme's 1×1 run ends — ξ and the carried Ĉ alike —
// in every layout, so a migration, a failover or a rebalance never moves a
// trajectory. Every scheme variant runs layoutSteps Held–Suarez steps on
// harness.Quick()'s 48×24×8 at M = 2 in every layout of oracleLayouts, with
// the plain pole mirror and, where p_x = 1, the shifted one; the CA variants
// also run TestDeepHaloAcrossBoundariesInvisible's 16×24×6 shapes at M = 3,
// whose deep halo spans several blocks and crosses the poles and the model
// top and bottom. A CA run migrated from 4×2 to 8×1 after two steps, through
// its barrier snapshot, must end there too.
func TestLayoutOracle(t *testing.T) {
	hs := heldsuarez.Standard()
	meshes := []struct {
		g *grid.Grid
		m int
	}{{grid.New(48, 24, 8), 2}, {grid.New(16, 24, 6), 3}}
	for _, mesh := range meshes {
		g := mesh.g
		for _, sc := range layoutSchemes {
			for _, shifted := range []bool{false, true} {
				cfg := dycore.DefaultConfig()
				cfg.M, cfg.ShiftedPoleMirror = mesh.m, shifted
				if sc.mod != nil {
					sc.mod(&cfg)
				}
				hook := func(g *grid.Grid, st *state.State, _ int) { hs.Apply(g, st, cfg.Dt2) }
				layouts := oracleLayouts(sc.alg, g)
				if mesh.m == 3 {
					if sc.alg != dycore.AlgCommAvoid {
						continue
					}
					layouts = []dycore.Setup{{PA: 4, PB: 1}, {PA: 4, PB: 2}}
				}
				ref := dycore.Setup{Alg: sc.alg, PA: 1, PB: 1, Cfg: cfg}
				if sc.alg == dycore.AlgBaseline3D {
					ref.PC = 1
				}
				if ref.Check(g, dycore.MinPerRank) != nil {
					continue // the shifted mirror under p_x > 1
				}
				want := checkpoint.Gather(g, dycore.RunWithHook(ref, g, comm.Zero(), heldsuarez.InitialState, layoutSteps, hook).Finals)
				for _, set := range layouts {
					set.Alg, set.Cfg = sc.alg, cfg
					if set.Check(g, dycore.MinPerRank) != nil {
						continue
					}
					t.Run(fmt.Sprintf("%dx%dx%d/%s/shifted=%v/%s", g.Nx, g.Ny, g.Nz, sc.name, shifted, layoutName(set)), func(t *testing.T) {
						got := dycore.RunWithHook(set, g, comm.Zero(), heldsuarez.InitialState, layoutSteps, hook)
						if !checkpoint.Gather(g, got.Finals).Equal(want) {
							t.Errorf("differs from the 1x1 run: max|Δξ| = %g, want bitwise (Ĉ compared too)",
								dycore.MaxDiffGlobal(g, got.Finals, dycore.RunWithHook(ref, g, comm.Zero(), heldsuarez.InitialState, layoutSteps, hook).Finals))
						}
					})
				}
				if sc.name == "ca" && mesh.m == 2 {
					t.Run(fmt.Sprintf("%dx%dx%d/ca/shifted=%v/migrated-4x2-to-8x1", g.Nx, g.Ny, g.Nz, shifted), func(t *testing.T) {
						from, to := dycore.Setup{Alg: sc.alg, PA: 4, PB: 2, Cfg: cfg}, dycore.Setup{Alg: sc.alg, PA: 8, PB: 1, Cfg: cfg}
						_, snaps := segment(from, g, hook, heldsuarez.InitialState, 2, 2, false, nil)
						got, _ := segment(to, g, hook, snaps[2].InitFunc(), layoutSteps-2, 0, false, nil)
						if !checkpoint.Gather(g, got.Finals).Equal(want) {
							t.Error("a run migrated from 4x2 to 8x1 differs from the 1x1 run, want bitwise (Ĉ compared too)")
						}
					})
				}
			}
		}
	}
}
