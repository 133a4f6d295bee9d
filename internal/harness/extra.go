package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"cadycore/internal/dycore"
)

// Figure3D is an extension experiment for the paper's Section 4.2 assertion
// that 2-dimensional decompositions "are always more efficient than
// 3-dimensional decomposition in real-world applications": it runs the
// original algorithm on the best 2-D Y-Z layout and on a 3-D layout
// (p_x = 2 with the remainder split like Y-Z) at each p, and reports total
// simulated runtimes.
func Figure3D(o Options) Figure {
	f := Figure{
		ID:     "extra-3d",
		Title:  "2-D vs 3-D decomposition, original algorithm (seconds, simulated)",
		YLabel: "seconds",
		Ps:     o.Ps,
	}
	twoD := Series{Name: "original-YZ (2-D)"}
	threeD := Series{Name: "original-3D (px=2)"}
	wins := 0
	comparisons := 0
	for _, p := range o.Ps {
		res2, ok2 := o.run(dycore.AlgBaselineYZ, p)
		twoD.Values = append(twoD.Values, orNaN(ok2, res2.Agg.SimTime))
		res3, ok3 := o.run3D(p)
		threeD.Values = append(threeD.Values, orNaN(ok3, res3.Agg.SimTime))
		if ok2 && ok3 {
			comparisons++
			if res2.Agg.SimTime <= res3.Agg.SimTime {
				wins++
			}
		}
	}
	f.Series = []Series{twoD, threeD}
	f.Notes = append(f.Notes, fmt.Sprintf(
		"2-D beats 3-D in %d of %d comparisons (paper: 2-D decompositions are always more efficient)",
		wins, comparisons))
	return f
}

// run3D executes the original algorithm on a 3-D layout: p_x = 2, the rest
// split by YZFactors.
func (o Options) run3D(p int) (dycore.RunResult, bool) {
	if p%2 != 0 {
		return dycore.RunResult{}, false
	}
	py, pz, ok := YZFactors(p/2, o.Ny, o.Nz)
	if !ok {
		return dycore.RunResult{}, false
	}
	return o.runHS(dycore.Setup{Alg: dycore.AlgBaseline3D, PA: 2, PB: py, PC: pz, Cfg: o.config()}), true
}

// FigureWeak is a weak-scaling extension experiment (the paper evaluates
// strong scaling only): the per-rank block is held at roughly
// baseNx×baseNy×Nz while the mesh grows with p, so perfect weak scaling is
// a flat line. The communication-avoiding algorithm's line should stay
// flatter than the baselines' (its round count per step is constant and its
// collective volume per rank is fixed).
func FigureWeak(o Options) Figure {
	f := Figure{
		ID:     "extra-weak",
		Title:  "weak scaling: simulated runtime at fixed per-rank block (seconds)",
		YLabel: "seconds",
		Ps:     o.Ps,
	}
	// Per-rank target: the p = min(Ps) configuration of the base mesh.
	baseP := slices.Min(o.Ps)
	series := make([]Series, len(figureAlgs))
	for ai, alg := range figureAlgs {
		series[ai].Name = alg.String()
	}
	for _, p := range o.Ps {
		// Scale the horizontal mesh so points/rank stays constant:
		// area multiplier = p/baseP, split √ per dimension (rounded to
		// multiples that keep layouts feasible).
		scale := float64(p) / float64(baseP)
		oo := o
		oo.cache = nil // different mesh per p: do not share the cache
		oo.Nx = evenize(int(float64(o.Nx) * math.Sqrt(scale)))
		oo.Ny = evenize(int(float64(o.Ny) * math.Sqrt(scale)))
		for ai, alg := range figureAlgs {
			res, ok := oo.run(alg, p)
			series[ai].Values = append(series[ai].Values, orNaN(ok, res.Agg.SimTime))
		}
	}
	f.Series = series
	f.Notes = append(f.Notes,
		"flat lines = perfect weak scaling; the mesh grows with p at fixed per-rank block")
	return f
}

func evenize(n int) int {
	if n%8 != 0 {
		n += 8 - n%8
	}
	return n
}

// FigureAblation is an extension experiment the paper's evaluation implies
// but does not show: the contribution of each Algorithm-2 ingredient,
// measured by switching one off at a time. Series are total simulated
// runtimes; the gap between a disabled variant and the full algorithm is
// that ingredient's contribution at that scale.
func FigureAblation(o Options) Figure {
	f := Figure{
		ID:     "extra-ablation",
		Title:  "Algorithm 2 ablations: total runtime with one ingredient disabled (seconds, simulated)",
		YLabel: "seconds",
		Ps:     o.Ps,
	}
	variants := []struct {
		name string
		mut  func(*dycore.Config)
	}{
		{"full CA", nil},
		{"no approx-C (3M colls)", func(c *dycore.Config) { c.ExactC = true }},
		{"no overlap", func(c *dycore.Config) { c.NoOverlap = true }},
		{"no fused smoothing", func(c *dycore.Config) { c.NoFusedSmoothing = true }},
		{"original-YZ", nil},
	}
	for _, v := range variants {
		ser := Series{Name: v.name}
		for _, p := range o.Ps {
			alg := dycore.AlgCommAvoid
			if v.name == "original-YZ" {
				alg = dycore.AlgBaselineYZ
			}
			res, ok := o.runVariant(alg, p, v.name, v.mut)
			ser.Values = append(ser.Values, orNaN(ok, res.Agg.SimTime))
		}
		f.Series = append(f.Series, ser)
	}
	f.Notes = append(f.Notes,
		"each row disables one Section-4 optimization; the original-YZ row is the no-optimization reference")
	return f
}

// CSV renders the figure as RFC-4180-ish CSV (header p,series...; one row
// per process count; empty cells for infeasible layouts).
func (f Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("p")
	for _, s := range f.Series {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(s.Name))
	}
	sb.WriteByte('\n')
	for i, p := range f.Ps {
		fmt.Fprintf(&sb, "%d", p)
		for _, s := range f.Series {
			sb.WriteByte(',')
			v := s.Values[i]
			if v == v { // not NaN
				fmt.Fprintf(&sb, "%g", v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
