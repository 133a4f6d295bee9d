package dycore_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"cadycore/internal/balance"
	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

// The schedule oracle is the one statement of bitwise reproducibility: every
// schedule of every scheme ends where its numerical class's 1×1 run ends —
// in every layout, overlapped or quiesced, staged or not, uninterrupted or
// stopped, crashed, written out, resumed or migrated on the way. One table
// (oracle) holds every cell; TestLayoutOracle runs the cells that vary the
// layout and TestInterruptionOracle those that vary the interruption.
//
// Every run takes oracleSteps Held–Suarez steps from oracleInit through
// balance.Run, the loop every command and job runs, on one of oracleMeshes.
// Its gathered final state must Equal the class's reference: ξ and the
// carried Ĉ in the CA classes, ξ alone in the yz class, whose reference
// carries no Ĉ.
const oracleSteps = 4

// oracleVariant is a scheme of the oracle and the numerical class whose 1×1
// run it ends at bit for bit. A class's reference is the 1×1 run, overlapped
// and unstaged, of the variant named as the class.
type oracleVariant struct {
	name, class string
	alg         dycore.Algorithm
	mod         func(*dycore.Config)
}

// oracleVariants: the baselines and exact Ĉ with the unfused smoothing are
// Algorithm 1 operation for operation, one class (yz). The fused smoothing
// smooths after the step hook, the unfused one before it, and the
// approximate Ĉ lags, so each other CA scheme is a class of its own.
// ca-stage1 is the ca class staged in every cell.
var oracleVariants = []oracleVariant{
	{"yz", "yz", dycore.AlgBaselineYZ, nil},
	{"xy", "yz", dycore.AlgBaselineXY, nil},
	{"3d", "yz", dycore.AlgBaseline3D, nil},
	{"ca-exactc-nofuse", "yz", dycore.AlgCommAvoid, func(c *dycore.Config) { c.ExactC, c.NoFusedSmoothing = true, true }},
	{"ca", "ca", dycore.AlgCommAvoid, nil},
	{"ca-stage1", "ca", dycore.AlgCommAvoid, func(c *dycore.Config) { c.StageM = 1 }},
	{"ca-exactc", "ca-exactc", dycore.AlgCommAvoid, func(c *dycore.Config) { c.ExactC = true }},
	{"ca-nofuse", "ca-nofuse", dycore.AlgCommAvoid, func(c *dycore.Config) { c.NoFusedSmoothing = true }},
}

// oracleMesh is a mesh of the oracle and its nonlinear iteration count.
type oracleMesh struct {
	g *grid.Grid
	m int
}

// oracleMeshes: harness.Quick()'s 48×24×8 at M = 2, and 16×24×6 at M = 3,
// where the CA schemes' deep halo spans several blocks and crosses the poles
// and the model top and bottom.
var oracleMeshes = []oracleMesh{{grid.New(48, 24, 8), 2}, {grid.New(16, 24, 6), 3}}

// oracleInit is the Held–Suarez initial state with a zonal wavenumber-3 wave
// in every component. heldsuarez.InitialState's own perturbation has
// wavenumber 4, which the antipodal shift maps onto itself: from it the
// shifted pole mirror ends bitwise where the plain one does, and a run that
// fell back to the plain mirror would pass.
func oracleInit(g *grid.Grid, st *state.State) {
	hs := heldsuarez.Standard()
	wave := func(lam, th float64) float64 { return math.Sin(3*lam) * math.Sin(th) * math.Sin(th) }
	st.InitFromPhysical(g,
		func(lam, th, sig float64) float64 { return 2 * wave(lam, th) },
		func(lam, th, sig float64) float64 { return wave(lam+1, th) },
		func(lam, th, sig float64) float64 {
			return hs.Teq(math.Pi/2-th, sig*(physics.P0-physics.Pt)+physics.Pt) + 0.5*wave(lam, th)
		},
		func(lam, th float64) float64 { return physics.P0 + 100*wave(lam+2, th) },
	)
}

func (m oracleMesh) String() string { return fmt.Sprintf("%dx%dx%d", m.g.Nx, m.g.Ny, m.g.Nz) }

// layouts returns the layouts v runs in on the mesh, past its class's 1×1
// reference. On 48×24×8 they are harness.Quick()'s process counts (4 and 8)
// in every split of the scheme's directions, a weighted row partition and,
// for the Y-Z schemes, a 2×3 split whose z blocks are not nodes of Ĉ's
// summation tree; for 3-D, grids split in all three. On 16×24×6 only the CA
// schemes run, in 4×1 and 4×2. Setup's PA, PB, PC are (p_y, p_z) for the
// Y-Z schemes, (p_x, p_y) for X-Y and (p_x, p_y, p_z) for 3-D.
func (m oracleMesh) layouts(v oracleVariant) []dycore.Setup {
	var out []dycore.Setup
	if v.class == "yz" && v.alg == dycore.AlgCommAvoid {
		out = append(out, dycore.Setup{PA: 1, PB: 1}) // a 1×1 run that is not its class's reference
	}
	if m.m == 3 {
		if v.alg == dycore.AlgCommAvoid {
			out = append(out, dycore.Setup{PA: 4, PB: 1}, dycore.Setup{PA: 4, PB: 2})
		}
		return out
	}
	switch v.alg {
	case dycore.AlgBaselineXY:
		for _, l := range [][2]int{{2, 2}, {4, 1}, {4, 2}, {2, 4}} {
			out = append(out, dycore.Setup{PA: l[0], PB: l[1]})
		}
		out = append(out, dycore.Setup{PA: 2, PB: 2, RowStarts: []int{0, m.g.Ny / 4, m.g.Ny}})
	case dycore.AlgBaseline3D:
		out = append(out, dycore.Setup{PA: 2, PB: 2, PC: 2}, dycore.Setup{PA: 1, PB: 4, PC: 2})
	default:
		for _, l := range [][2]int{{4, 1}, {3, 1}, {1, 2}, {1, 4}, {4, 2}, {8, 1}, {2, 4}, {2, 3}} {
			out = append(out, dycore.Setup{PA: l[0], PB: l[1]})
		}
		out = append(out, dycore.Setup{PA: 4, PB: 2, RowStarts: []int{0, 3, 6, 15, m.g.Ny}})
	}
	return out
}

// migrations are the layout each scheme family migrates from and to, after
// two steps, on 48×24×8.
var migrations = map[dycore.Algorithm][2]dycore.Setup{
	dycore.AlgBaselineYZ: {{PA: 4, PB: 2}, {PA: 8, PB: 1}},
	dycore.AlgCommAvoid:  {{PA: 4, PB: 2}, {PA: 8, PB: 1}},
	dycore.AlgBaselineXY: {{PA: 4, PB: 2}, {PA: 2, PB: 4}},
	dycore.AlgBaseline3D: {{PA: 2, PB: 2, PC: 2}, {PA: 1, PB: 4, PC: 2}},
}

// layoutChanges are the re-partitions a Y-Z scheme's step-2 snapshot, taken
// in 2×2 (2×1 for pz-1-to-2) and written out, is resumed under: p_y, p_z
// (both ways) or the row partition changes.
var layoutChanges = []struct {
	name     string
	from, to dycore.Setup
}{
	{"py-2-to-4", dycore.Setup{PA: 2, PB: 2}, dycore.Setup{PA: 4, PB: 2}},
	{"pz-2-to-1", dycore.Setup{PA: 2, PB: 2}, dycore.Setup{PA: 2, PB: 1}},
	{"pz-1-to-2", dycore.Setup{PA: 2, PB: 1}, dycore.Setup{PA: 2, PB: 2}},
	{"uniform-to-weighted-rows", dycore.Setup{PA: 2, PB: 2}, dycore.Setup{PA: 2, PB: 2, RowStarts: []int{0, 9, 24}}},
}

// The interruptions a run survives bitwise (oracleCell.interrupt).
const (
	uninterrupted = "none"
	everyBoundary = "stop-resume-every-boundary"
	crashRestart  = "crash-restart-from-snapshot"
	writeRead     = "snapshot-write-read-resume" // in the same layout
	crossLayout   = "cross-layout"               // written out, resumed in another layout
	migrated      = "migrated"                   // handed over in memory to another layout
)

// oracleCell is one run of the oracle: a variant on a mesh under one
// mirror, started in layout set and, after a cross-layout or migrating
// interruption, finished in to; set.Cfg carries the overlap and StageM.
type oracleCell struct {
	name      string // the subtest, under TestLayoutOracle or TestInterruptionOracle
	mesh      oracleMesh
	v         oracleVariant
	shifted   bool
	set, to   dycore.Setup
	interrupt string
	layoutRow bool // a TestLayoutOracle cell
}

// axes returns the cell's value on every axis, its layout last (with the
// mesh and the scheme family: a Y-Z split is one layout for YZ and CA).
func (c oracleCell) axes() []string {
	stage := fmt.Sprint(c.set.Cfg.StageM)
	switch {
	case c.v.alg != dycore.AlgCommAvoid:
		stage = "-"
	case c.set.Cfg.StageDepth() == c.mesh.m:
		stage = "M"
	}
	layout, family := layoutName(c.set), "yz"
	if to := layoutName(c.to); to != layout {
		layout += "->" + to
	}
	if c.v.alg == dycore.AlgBaselineXY || c.v.alg == dycore.AlgBaseline3D {
		family = c.v.alg.Name()
	}
	return []string{"class " + c.v.class, "variant " + c.v.name, fmt.Sprint("shifted=", c.shifted),
		fmt.Sprint("NoOverlap=", c.set.Cfg.NoOverlap), "StageM " + stage, "interruption " + c.interrupt,
		fmt.Sprintf("layout %s %s %s", c.mesh, family, layout)}
}

// pairs returns the pairs of the cell's axis values, but a baseline's
// StageM; with layout false, only those of the scheme and schedule axes.
func (c oracleCell) pairs(layout bool) []string {
	vals := c.axes()
	if !layout {
		vals = vals[:len(vals)-1]
	}
	var out []string
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			if a != "StageM -" && b != "StageM -" {
				out = append(out, a+" × "+b)
			}
		}
	}
	return out
}

// schedules expands c into its runnable candidates: overlapped or quiesced,
// and for a CA scheme without a stage of its own every StageM (0, unstaged,
// up to M − 1).
func (c oracleCell) schedules() []oracleCell {
	var out []oracleCell
	for _, noOverlap := range []bool{false, true} {
		for stage := range c.mesh.m {
			cfg := dycore.DefaultConfig()
			cfg.M, cfg.ShiftedPoleMirror, cfg.NoOverlap = c.mesh.m, c.shifted, noOverlap
			if c.v.mod != nil {
				c.v.mod(&cfg)
			}
			if stage > 0 {
				if c.v.alg != dycore.AlgCommAvoid || cfg.StageM > 0 {
					break
				}
				cfg.StageM = stage
			}
			s := c
			s.set.Alg, s.set.Cfg, s.to.Alg, s.to.Cfg = c.v.alg, cfg, c.v.alg, cfg
			if s.set.Check(c.mesh.g, dycore.MinPerRank) == nil && s.to.Check(c.mesh.g, dycore.MinPerRank) == nil {
				out = append(out, s)
			}
		}
	}
	return out
}

// oracleTable is the oracle's cells and its references' final states, run
// on first use.
type oracleTable struct {
	cells   []oracleCell
	refs    map[refKey]func() []*state.State
	missing []string // pairs of schedule values no cell meets
}

// refKey names a reference: a class's 1×1 run on a mesh under a mirror.
type refKey struct {
	mesh    oracleMesh
	class   string
	shifted bool
}

func (c oracleCell) ref() refKey { return refKey{c.mesh, c.v.class, c.shifted} }

// oracle builds the table once. The layout cells are the full product of
// mesh, variant, mirror and layout, uninterrupted, plus one migration per
// variant and mirror; the interruption cells are every variant under every
// interruption (the cross-layout ones for the Y-Z schemes). Each cell takes,
// from its candidates (mesh, mirror and layout where they are free, overlap,
// StageM), the one that meets the most value pairs no earlier cell met, so
// that every value of each schedule axis meets every value of every other
// one; missing lists any pair that a candidate offered but no cell took.
var oracle = sync.OnceValue(func() *oracleTable {
	o := &oracleTable{refs: map[refKey]func() []*state.State{}}
	met, offered := map[string]bool{}, map[string]bool{}
	take := func(cands []oracleCell) {
		best, most := -1, -1
		for i, c := range cands {
			n := 0
			for _, p := range c.pairs(true) {
				if !met[p] {
					n++
				}
			}
			for _, p := range c.pairs(false) {
				offered[p] = true
			}
			if n > most {
				best, most = i, n
			}
		}
		if best < 0 {
			return // no runnable candidate: the shifted mirror under p_x > 1
		}
		c := cands[best]
		for _, p := range c.pairs(true) {
			met[p] = true
		}
		o.cells = append(o.cells, c)
		if k := c.ref(); o.refs[k] == nil {
			one := dycore.Setup{PA: 1, PB: 1}
			classRef := oracleVariants[slices.IndexFunc(oracleVariants, func(v oracleVariant) bool { return v.name == c.v.class })]
			ref := oracleCell{mesh: c.mesh, v: classRef, shifted: c.shifted, set: one, to: one}.schedules()[0]
			o.refs[k] = sync.OnceValue(func() []*state.State {
				hs := heldsuarez.Standard()
				hook := func(g *grid.Grid, st *state.State, _ int) { hs.Apply(g, st, ref.set.Cfg.Dt2) }
				return dycore.RunWithHook(ref.set, ref.mesh.g, comm.TianheLike(), oracleInit, oracleSteps, hook).Finals
			})
		}
	}
	for _, m := range oracleMeshes {
		for _, v := range oracleVariants {
			for _, shifted := range []bool{false, true} {
				cell := oracleCell{mesh: m, v: v, shifted: shifted, interrupt: uninterrupted, layoutRow: true}
				for _, lay := range m.layouts(v) {
					cell.set, cell.to = lay, lay
					cell.name = fmt.Sprintf("%s/%s/shifted=%v/%s", m, v.name, shifted, layoutName(lay))
					take(cell.schedules())
				}
				if m.m == 2 {
					mig := migrations[v.alg]
					cell.set, cell.to, cell.interrupt = mig[0], mig[1], migrated
					cell.name = fmt.Sprintf("%s/%s/shifted=%v/migrated-%s-to-%s", m, v.name, shifted, layoutName(mig[0]), layoutName(mig[1]))
					take(cell.schedules())
				}
			}
		}
	}
	for _, v := range oracleVariants {
		for _, in := range []string{everyBoundary, crashRestart, writeRead} {
			var cands []oracleCell
			for _, m := range oracleMeshes {
				for _, shifted := range []bool{false, true} {
					cell := oracleCell{name: v.name + "/" + in, mesh: m, v: v, shifted: shifted, interrupt: in}
					for _, lay := range m.layouts(v) {
						cell.set, cell.to = lay, lay
						cands = append(cands, cell.schedules()...)
					}
				}
			}
			take(cands)
		}
		if v.alg == dycore.AlgBaselineXY || v.alg == dycore.AlgBaseline3D {
			continue
		}
		for _, lc := range layoutChanges {
			var cands []oracleCell
			for _, m := range oracleMeshes {
				for _, shifted := range []bool{false, true} {
					cell := oracleCell{name: v.name + "/cross-layout-" + lc.name, mesh: m, v: v, shifted: shifted,
						set: lc.from, to: lc.to, interrupt: crossLayout}
					cands = append(cands, cell.schedules()...)
				}
			}
			take(cands)
		}
	}
	for p := range offered {
		if !met[p] {
			o.missing = append(o.missing, p)
		}
	}
	slices.Sort(o.missing)
	return o
})

// TestLayoutOracle: every variant ends bitwise at its class's 1×1 run in
// every layout of every mesh under both mirrors (the shifted one where
// p_x = 1), and after a migration between two layouts.
func TestLayoutOracle(t *testing.T) { runOracle(t, true) }

// TestInterruptionOracle: every variant ends bitwise at its class's 1×1 run
// when it is stopped and resumed at every boundary, crashed and restarted
// from its last snapshot, written out and resumed, or written out and
// resumed in another layout. No caller passes a "this is a resume" hint;
// the snapshot says it all.
func TestInterruptionOracle(t *testing.T) { runOracle(t, false) }

func runOracle(t *testing.T, layoutRows bool) {
	o := oracle()
	if len(o.missing) > 0 {
		t.Fatalf("no cell meets these pairs of schedule values: %v", o.missing)
	}
	for k, run := range o.refs {
		if plain := o.refs[refKey{k.mesh, k.class, false}]; layoutRows && k.shifted && plain != nil && dycore.MaxDiffGlobal(k.mesh.g, plain(), run()) == 0 {
			t.Errorf("%s, class %s: the shifted mirror's 1x1 run ends bitwise where the plain one's does, so no cell tests the mirror", k.mesh, k.class)
		}
	}
	for _, c := range o.cells {
		if c.layoutRow != layoutRows {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			g := c.mesh.g
			got, ref := c.finals(t), o.refs[c.ref()]()
			gl := checkpoint.Gather(g, got)
			if c.v.class == "yz" {
				gl.PWI, gl.DBar, gl.PendingSmooth = nil, nil, false // the reference carries no Ĉ
			}
			if !gl.Equal(checkpoint.Gather(g, ref)) {
				t.Errorf("%s: differs from the class's 1x1 run by max|Δξ| = %g, want bitwise", strings.Join(c.axes(), ", "), dycore.MaxDiffGlobal(g, got, ref))
			}
		})
	}
}

// finals runs the cell's schedule and returns its final states.
func (c oracleCell) finals(t *testing.T) []*state.State {
	g, init := c.mesh.g, dycore.InitFunc(oracleInit)
	switch c.interrupt {
	case uninterrupted:
		return drive(t, g, c.set, init, 0, nil).Finals
	case everyBoundary:
		for k := 1; k < oracleSteps; k++ {
			init = stopAt(t, g, c.set, init, k-1, k).InitFunc()
		}
		return drive(t, g, c.set, init, oracleSteps-1, nil).Finals
	case crashRestart:
		out := drive(t, g, c.set, init, 0, func(s *balance.RunSpec) {
			s.Faults = fault.New(fault.Plan{Crashes: []fault.Crash{{Rank: c.set.Procs() - 1, Step: 3}}})
			s.MaxRestarts, s.SnapshotEvery = 1, 2
		})
		if len(out.Restarts) != 1 || out.Restarts[0].From != 2 {
			t.Fatalf("%s: restarts %+v, want one crash after step 3 resumed from step 2", strings.Join(c.axes(), ", "), out.Restarts)
		}
		return out.Finals
	}
	snap := stopAt(t, g, c.set, init, 0, 2)
	if c.interrupt != migrated {
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := checkpoint.Read(&buf)
		if err != nil || !back.Equal(snap) {
			t.Fatalf("%s: the step-2 snapshot does not read back bitwise (%v)", strings.Join(c.axes(), ", "), err)
		}
		snap = back
	}
	return drive(t, g, c.to, snap.InitFunc(), 2, nil).Finals
}

// drive runs set from step start to oracleSteps under the Held–Suarez hook
// through balance.Run; mod sets the interruption's fields.
func drive(t *testing.T, g *grid.Grid, set dycore.Setup, init dycore.InitFunc, start int, mod func(*balance.RunSpec)) balance.Outcome {
	t.Helper()
	hs := heldsuarez.Standard()
	spec := balance.RunSpec{Grid: g, Model: comm.TianheLike(), Init: init, Start: start, Steps: oracleSteps, Setup: set,
		Hook: func(g *grid.Grid, st *state.State, _ int) { hs.Apply(g, st, set.Cfg.Dt2) }}
	if mod != nil {
		mod(&spec)
	}
	out, err := balance.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stopAt runs set from step start, stops it at boundary k and returns the
// snapshot the stop took.
func stopAt(t *testing.T, g *grid.Grid, set dycore.Setup, init dycore.InitFunc, start, k int) *checkpoint.Global {
	t.Helper()
	at := start
	var snap *checkpoint.Global
	out := drive(t, g, set, init, start, func(s *balance.RunSpec) {
		s.Progress = func(step int) { at = step }
		s.ShouldStop = func() bool { return at == k }
		s.Snapshot = func(_ int, gl *checkpoint.Global, _ comm.Aggregate, _ dycore.Counters) { snap = gl }
	})
	if out.StepsDone != k || snap == nil {
		t.Fatalf("stopped at boundary %d: %d steps done, snapshot taken %v", k, out.StepsDone, snap != nil)
	}
	return snap
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
