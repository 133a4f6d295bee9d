package harness

import (
	"math"
	"strings"
	"testing"

	"cadycore/internal/dycore"
)

func TestYZFactorsFeasibility(t *testing.T) {
	for _, c := range []struct{ p, ny, nz int }{
		{4, 96, 24}, {8, 96, 24}, {16, 96, 24}, {32, 96, 24}, {64, 96, 24},
		{16, 360, 30}, {1024, 360, 30},
	} {
		py, pz, ok := YZFactors(c.p, c.ny, c.nz)
		if !ok {
			t.Errorf("no Y-Z layout for p=%d on %dx%d", c.p, c.ny, c.nz)
			continue
		}
		if py*pz != c.p {
			t.Errorf("p=%d: %d·%d != p", c.p, py, pz)
		}
		if py > c.ny/2 || pz > c.nz/2 {
			t.Errorf("p=%d: layout %dx%d violates limits", c.p, py, pz)
		}
	}
	// Infeasible: prime p exceeding the latitude limit with pz = 1 and not
	// divisible otherwise.
	if _, _, ok := YZFactors(97, 96, 24); ok {
		t.Error("p=97 should be infeasible on 96x24")
	}
}

func TestXYFactorsBalanced(t *testing.T) {
	px, py, ok := XYFactors(64, 192, 96)
	if !ok || px*py != 64 {
		t.Fatalf("bad layout %dx%d", px, py)
	}
	if px != 8 || py != 8 {
		t.Errorf("expected the balanced 8x8, got %dx%d", px, py)
	}
}

func TestQuickFiguresShape(t *testing.T) {
	o := Quick()
	o.Prime()
	figs := AllFigures(o)
	if len(figs) != 4 {
		t.Fatalf("expected 4 figures, got %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Ps) != len(o.Ps) {
			t.Errorf("%s: wrong x axis", f.ID)
		}
		for _, s := range f.Series {
			if len(s.Values) != len(f.Ps) {
				t.Errorf("%s/%s: %d values for %d ps", f.ID, s.Name, len(s.Values), len(f.Ps))
			}
		}
		if !strings.Contains(f.Format(), f.ID) {
			t.Errorf("%s: Format() lacks the figure id", f.ID)
		}
	}
}

func TestFigure1SharesSumToOne(t *testing.T) {
	o := Quick()
	o.Prime()
	f := Figure1(o)
	if len(f.Series) != 2 {
		t.Fatalf("figure 1 must have 2 series")
	}
	for i := range f.Ps {
		c := f.Series[0].Values[i]
		p := f.Series[1].Values[i]
		if c != c || p != p {
			continue
		}
		if math.Abs(c+p-1) > 1e-9 {
			t.Errorf("p=%d: shares sum to %v", f.Ps[i], c+p)
		}
		if c < 0 || c > 1 || p < 0 || p > 1 {
			t.Errorf("p=%d: shares out of range: %v %v", f.Ps[i], c, p)
		}
	}
}

func TestFigure7CAWinsStencil(t *testing.T) {
	// The headline qualitative claim at any scale: the CA algorithm's
	// stencil communication time beats the Y-Z baseline's.
	o := Quick()
	o.Prime()
	f := Figure7(o)
	var yz, ca []float64
	for _, s := range f.Series {
		switch s.Name {
		case dycore.AlgBaselineYZ.String():
			yz = s.Values
		case dycore.AlgCommAvoid.String():
			ca = s.Values
		}
	}
	for i := range f.Ps {
		if yz[i] != yz[i] || ca[i] != ca[i] {
			continue
		}
		if ca[i] >= yz[i] {
			t.Errorf("p=%d: CA stencil time %v not below Y-Z %v", f.Ps[i], ca[i], yz[i])
		}
	}
}

func TestFigure6CACollectiveBelowYZ(t *testing.T) {
	// The approximate nonlinear iteration must cut the z-collective time
	// (by roughly one third at matched layouts).
	o := Quick()
	o.Prime()
	f := Figure6(o)
	var yz, ca []float64
	for _, s := range f.Series {
		switch s.Name {
		case dycore.AlgBaselineYZ.String():
			yz = s.Values
		case dycore.AlgCommAvoid.String():
			ca = s.Values
		}
	}
	for i := range f.Ps {
		if yz[i] != yz[i] || ca[i] != ca[i] || yz[i] == 0 {
			continue
		}
		if ca[i] >= yz[i] {
			t.Errorf("p=%d: CA collective time %v not below Y-Z %v", f.Ps[i], ca[i], yz[i])
		}
	}
}

func TestTheoryTableConsistency(t *testing.T) {
	o := Quick()
	o.Prime()
	rows := TheoryTable(o)
	if len(rows) == 0 {
		t.Fatal("empty theory table")
	}
	// Group by p and verify the measured per-step exchange counts match
	// the algorithms' structure (3M+4 vs 2 per step).
	for _, r := range rows {
		perStep := float64(o.perStep(r).exchanges)
		switch r.Alg {
		case dycore.AlgCommAvoid.String():
			if perStep != 2 {
				t.Errorf("p=%d CA exchanges/step = %v, want 2", r.P, perStep)
			}
		default:
			if perStep != float64(3*o.M+4) {
				t.Errorf("p=%d %s exchanges/step = %v, want %d", r.P, r.Alg, perStep, 3*o.M+4)
			}
		}
	}
	if s := FormatTheory(rows); !strings.Contains(s, "section-5.3") {
		t.Error("FormatTheory header missing")
	}
}

// TestSyncCountsMatchModel: the synchronization counts of the §5.3 model are
// what the schemes do. On every rank that enters a scheme's collectives,
// neighbor-exchange rounds plus collectives per step equal costmodel's closed
// forms, (9M+10) for X-Y, (6M+4) for Y-Z and (2M+2) for CA, and CA enters 2/3
// of Y-Z's collectives. Some ranks enter none, though the model counts them
// (EXPERIMENTS.md "Synchronization counts"): every rank of a Y-Z
// decomposition with p_z = 1, whose z sums run on a one-rank communicator,
// and the X-Y ranks that own no latitude row the polar filter touches.
func TestSyncCountsMatchModel(t *testing.T) {
	o := Quick()
	o.Prime()
	colls := map[int]map[string]int64{}
	for _, r := range TheoryTable(o) {
		c := o.perStep(r)
		entering := c.entering
		if colls[r.P] == nil {
			colls[r.P] = map[string]int64{}
		}
		colls[r.P][r.Alg] = r.CollectivesMeasured
		if entering == 0 {
			if r.CollectivesMeasured != 0 {
				t.Errorf("p=%d %s: %d collectives, want none (no rank enters one)", r.P, r.Alg, r.CollectivesMeasured)
			}
			continue
		}
		steps := int64(o.Steps)
		exch, perRank := c.exchanges, c.collectives
		if perRank*int64(entering)*steps != r.CollectivesMeasured || float64((exch+perRank)*steps) != r.SModel {
			t.Errorf("p=%d %s: %d exchanges + %d collectives over %d ranks per step, want S = %g",
				r.P, r.Alg, exch, r.CollectivesMeasured, entering, r.SModel/float64(steps))
		}
	}
	for p, c := range colls {
		if ca, yz := c[dycore.AlgCommAvoid.String()], c[dycore.AlgBaselineYZ.String()]; 3*ca != 2*yz {
			t.Errorf("p=%d: CA enters %d collectives, Y-Z %d, want 2/3 of them", p, ca, yz)
		}
	}
}

func TestCacheSharing(t *testing.T) {
	o := Quick()
	o.Prime()
	a, okA := o.run(dycore.AlgBaselineYZ, o.Ps[0])
	b, okB := o.run(dycore.AlgBaselineYZ, o.Ps[0])
	if !okA || !okB {
		t.Fatal("run failed")
	}
	if a.Agg.SimTime != b.Agg.SimTime {
		t.Error("cache did not return the memoized result")
	}
}

func TestSortedPs(t *testing.T) {
	got := SortedPs([]int{8, 2, 4})
	if got[0] != 2 || got[2] != 8 {
		t.Errorf("SortedPs = %v", got)
	}
}

func TestFigure3DTwoDWins(t *testing.T) {
	o := Quick()
	o.Prime()
	f := Figure3D(o)
	if len(f.Series) != 2 {
		t.Fatalf("3d figure has %d series", len(f.Series))
	}
	for i := range f.Ps {
		two, three := f.Series[0].Values[i], f.Series[1].Values[i]
		if two != two || three != three {
			continue
		}
		if two > three {
			t.Errorf("p=%d: 2-D (%g) slower than 3-D (%g) — contradicts the paper's assertion",
				f.Ps[i], two, three)
		}
	}
}

func TestFigureWeakCAFlattest(t *testing.T) {
	o := Quick()
	o.Ps = []int{4, 16}
	o.Prime()
	f := FigureWeak(o)
	growth := map[string]float64{}
	for _, s := range f.Series {
		if s.Values[0] == s.Values[0] && s.Values[len(s.Values)-1] == s.Values[len(s.Values)-1] {
			growth[s.Name] = s.Values[len(s.Values)-1] / s.Values[0]
		}
	}
	ca, okCA := growth[dycore.AlgCommAvoid.String()]
	yz, okYZ := growth[dycore.AlgBaselineYZ.String()]
	if !okCA || !okYZ {
		t.Skip("layouts infeasible at quick scale")
	}
	if ca > 3*yz {
		t.Errorf("CA weak-scaling growth %.2fx much worse than YZ %.2fx", ca, yz)
	}
}

func TestFigureAblationOrdering(t *testing.T) {
	// Disabling an optimization must not make the algorithm faster (the
	// simulated clock is deterministic, so this is a sharp check up to the
	// FP noise of the trajectories differing under ExactC).
	o := Quick()
	o.Steps = 3 // fused smoothing only engages from step 2
	o.Prime()
	f := FigureAblation(o)
	vals := map[string][]float64{}
	for _, s := range f.Series {
		vals[s.Name] = s.Values
	}
	full := vals["full CA"]
	for _, name := range []string{"no approx-C (3M colls)", "no fused smoothing"} {
		abl := vals[name]
		for i := range full {
			if full[i] != full[i] || abl[i] != abl[i] {
				continue
			}
			if abl[i] < full[i]*0.98 {
				t.Errorf("p=%d: %q (%g) faster than full CA (%g)", f.Ps[i], name, abl[i], full[i])
			}
		}
	}
}

func TestFigureCSV(t *testing.T) {
	o := Quick()
	o.Prime()
	f := Figure8(o)
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(o.Ps) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(o.Ps))
	}
	if !strings.HasPrefix(lines[0], "p,") {
		t.Errorf("CSV header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != len(f.Series) {
			t.Errorf("CSV row %q has wrong arity", l)
		}
	}
}
