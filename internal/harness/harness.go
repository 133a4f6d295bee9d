// Package harness regenerates the paper's evaluation (Section 5): Figures
// 1, 6, 7 and 8 and the Section 5.3 theory table, as data series over the
// process count p. Each data point is produced by actually running the
// corresponding algorithm on the simulated message-passing runtime with the
// Held–Suarez workload, so communication counters and (LogP-modeled) times
// emerge from real executions rather than formulas. Absolute times are not
// expected to match Tianhe-2; the paper's shapes — who wins, by what
// factor, where the crossovers fall — are.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"cadycore/internal/comm"
	"cadycore/internal/costmodel"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// Options configures an experiment sweep. The embedded cache memoizes run
// results so the four figures share one execution of each (algorithm, p)
// cell; copy Options by reference (or call Prime once) to benefit.
type Options struct {
	Nx, Ny, Nz int
	M          int
	Steps      int
	Dt1, Dt2   float64
	Ps         []int
	Model      comm.NetModel

	cache *runCache
}

// runCache is the shared memoization of (algorithm, p, variant) cells. It is
// held by pointer so value copies of Options share it, and mutex-guarded so
// concurrent sweeps (the job service runs figure jobs on a worker pool) are
// safe. Concurrent misses of the same cell may both execute the run; the
// results are deterministic, so either store is correct.
type runCache struct {
	mu sync.Mutex
	m  map[cacheKey]cacheVal
}

func (rc *runCache) get(k cacheKey) (cacheVal, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	v, ok := rc.m[k]
	return v, ok
}

func (rc *runCache) put(k cacheKey, v cacheVal) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.m[k] = v
}

type cacheKey struct {
	alg     dycore.Algorithm
	p       int
	variant string // ablation label; "" = the standard configuration
}

type cacheVal struct {
	res dycore.RunResult
	ok  bool
}

// Defaults returns a sweep that runs in minutes on one machine: a scaled
// mesh (the 50 km mesh of the paper is available via cmd/experiments
// -nx 720 -ny 360 -nz 30) and the paper's M = 3.
func Defaults() Options {
	return Options{
		Nx: 192, Ny: 96, Nz: 24,
		M:     3,
		Steps: 2,
		Dt1:   30, Dt2: 180,
		Ps:    []int{8, 16, 32, 64, 128},
		Model: comm.TianheLike(),
	}
}

// Quick returns a minimal sweep for tests.
func Quick() Options {
	o := Defaults()
	o.Nx, o.Ny, o.Nz = 48, 24, 8
	o.M = 2
	o.Steps = 1
	o.Ps = []int{4, 8}
	return o
}

func (o Options) grid() *grid.Grid { return grid.New(o.Nx, o.Ny, o.Nz) }

// Validate reports why the sweep cannot run, if it cannot: a mesh
// grid.Check refuses, a configuration dycore.Config.Validate refuses, or
// fewer than one step per measurement.
func (o Options) Validate() error {
	if err := grid.Check(o.Nx, o.Ny, o.Nz); err != nil {
		return err
	}
	if err := o.config().Validate(); err != nil {
		return err
	}
	if o.Steps < 1 {
		return fmt.Errorf("harness: steps = %d must be ≥ 1", o.Steps)
	}
	return nil
}

func (o Options) config() dycore.Config {
	cfg := dycore.DefaultConfig()
	cfg.M = o.M
	cfg.Dt1, cfg.Dt2 = o.Dt1, o.Dt2
	return cfg
}

// YZFactors chooses (py, pz) for p ranks on the mesh with M = 3: the
// feasible pair maximizing the smaller of block-rows/halo-rows and
// block-layers/halo-layers, i.e. the layout that keeps the deep-halo
// overhead of the communication-avoiding algorithm lowest. All algorithms
// are run on the same layout, like the paper compares algorithms per p.
// ok = false when p cannot be laid out.
func YZFactors(p, ny, nz int) (py, pz int, ok bool) {
	maxPy, maxPz := ny/dycore.MinPerRank, nz/dycore.MinPerRank
	_, hy, hz := dycore.Setup{Alg: dycore.AlgCommAvoid, Cfg: dycore.Config{M: 3}}.HaloWidths()
	haloY, haloZ := float64(hy), float64(hz)
	best := math.Inf(-1)
	for a := 1; a <= p; a++ {
		if p%a != 0 {
			continue
		}
		b := p / a // a = py candidate, b = pz candidate
		if a > maxPy || b > maxPz {
			continue
		}
		rows := float64(ny) / float64(a) / haloY
		layers := float64(nz) / float64(b) / haloZ
		score := math.Min(rows, layers)
		if score > best {
			best = score
			py, pz = a, b
		}
	}
	return py, pz, !math.IsInf(best, -1)
}

// XYFactors chooses the most balanced feasible (px, py).
func XYFactors(p, nx, ny int) (px, py int, ok bool) {
	maxPx, maxPy := nx/dycore.MinPerRank, ny/dycore.MinPerRank
	best := -1
	for a := 1; a <= p; a++ {
		if p%a != 0 {
			continue
		}
		b := p / a
		if a > maxPx || b > maxPy {
			continue
		}
		bal := a - b
		if bal < 0 {
			bal = -bal
		}
		if best == -1 || bal < best {
			best = bal
			px, py = a, b
		}
	}
	return px, py, best != -1
}

// Prime allocates the shared memoization cache; AllFigures calls it
// automatically. After Prime, value copies of the Options share the cache.
func (o *Options) Prime() {
	if o.cache == nil {
		o.cache = &runCache{m: make(map[cacheKey]cacheVal)}
	}
}

// run executes one (algorithm, p) cell of the experiment matrix with the
// H-S workload and returns the result; ok=false when the layout is
// infeasible. Results are memoized (without the per-rank states, which the
// figures do not need) when the cache is primed.
func (o Options) run(alg dycore.Algorithm, p int) (dycore.RunResult, bool) {
	return o.runVariant(alg, p, "", nil)
}

// runVariant is run with a config mutation identified by a cache label.
func (o Options) runVariant(alg dycore.Algorithm, p int, variant string, mut func(*dycore.Config)) (dycore.RunResult, bool) {
	if o.cache != nil {
		if v, hit := o.cache.get(cacheKey{alg, p, variant}); hit {
			return v.res, v.ok
		}
	}
	res, ok := o.runUncached(alg, p, mut)
	res.Finals = nil
	if o.cache != nil {
		o.cache.put(cacheKey{alg, p, variant}, cacheVal{res, ok})
	}
	return res, ok
}

func (o Options) runUncached(alg dycore.Algorithm, p int, mut func(*dycore.Config)) (dycore.RunResult, bool) {
	cfg := o.config()
	if mut != nil {
		mut(&cfg)
	}
	var set dycore.Setup
	switch alg {
	case dycore.AlgBaselineXY:
		px, py, ok := XYFactors(p, o.Nx, o.Ny)
		if !ok {
			return dycore.RunResult{}, false
		}
		set = dycore.Setup{Alg: alg, PA: px, PB: py, Cfg: cfg}
	default:
		py, pz, ok := YZFactors(p, o.Ny, o.Nz)
		if !ok {
			return dycore.RunResult{}, false
		}
		set = dycore.Setup{Alg: alg, PA: py, PB: pz, Cfg: cfg}
	}
	return o.runHS(set), true
}

// runHS runs set for o.Steps steps of the Held–Suarez workload.
func (o Options) runHS(set dycore.Setup) dycore.RunResult {
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) {
		hs.Apply(g, st, set.Cfg.Dt2)
	}
	return dycore.RunWithHook(set, o.grid(), o.Model, heldsuarez.InitialState, o.Steps, hook)
}

// Series is one named line of a figure.
type Series struct {
	Name   string
	Values []float64 // aligned with Figure.Ps; NaN = infeasible layout
}

// Figure is one reproduced figure: data series over process counts.
type Figure struct {
	ID     string
	Title  string
	YLabel string
	Ps     []int
	Series []Series
	Notes  []string
}

// Format renders the figure as an aligned text table.
func (f Figure) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&sb, "%-10s", "p")
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%22s", s.Name)
	}
	sb.WriteByte('\n')
	for i, p := range f.Ps {
		fmt.Fprintf(&sb, "%-10d", p)
		for _, s := range f.Series {
			v := s.Values[i]
			switch {
			case v != v: // NaN
				fmt.Fprintf(&sb, "%22s", "-")
			case f.YLabel == "percent":
				fmt.Fprintf(&sb, "%21.1f%%", 100*v)
			default:
				fmt.Fprintf(&sb, "%22.6g", v)
			}
		}
		sb.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Figure1 reproduces Figure 1: the fraction of dynamical-core time spent in
// communication vs computation for the original algorithm (best
// decomposition per p).
func Figure1(o Options) Figure {
	f := Figure{
		ID:     "figure-1",
		Title:  "communication vs computation share of the dynamical core runtime (original algorithm, best decomposition)",
		YLabel: "percent",
		Ps:     o.Ps,
	}
	commS := Series{Name: "communication"}
	compS := Series{Name: "computation"}
	for _, p := range o.Ps {
		best := dycore.RunResult{}
		found := false
		for _, alg := range []dycore.Algorithm{dycore.AlgBaselineXY, dycore.AlgBaselineYZ} {
			res, ok := o.run(alg, p)
			if !ok {
				continue
			}
			if !found || res.Agg.SimTime < best.Agg.SimTime {
				best, found = res, true
			}
		}
		if !found {
			commS.Values = append(commS.Values, math.NaN())
			compS.Values = append(compS.Values, math.NaN())
			continue
		}
		ct := best.Agg.TotalCommTime()
		pt := best.Agg.CompTimeMax
		commS.Values = append(commS.Values, ct/(ct+pt))
		compS.Values = append(compS.Values, pt/(ct+pt))
	}
	f.Series = []Series{commS, compS}
	return f
}

var figureAlgs = []dycore.Algorithm{dycore.AlgBaselineXY, dycore.AlgBaselineYZ, dycore.AlgCommAvoid}

// sweep runs all three algorithms over o.Ps and extracts one value per run.
func sweep(o Options, extract func(dycore.RunResult) float64) []Series {
	out := make([]Series, len(figureAlgs))
	for ai, alg := range figureAlgs {
		out[ai].Name = alg.String()
		for _, p := range o.Ps {
			res, ok := o.run(alg, p)
			out[ai].Values = append(out[ai].Values, orNaN(ok, extract(res)))
		}
	}
	return out
}

// orNaN is a cell's value v, or NaN where its layout is infeasible.
func orNaN(ok bool, v float64) float64 {
	if !ok {
		return math.NaN()
	}
	return v
}

// Figure6 reproduces Figure 6: time for collective communication (the
// distributed-FFT transposes of F̃ under X-Y; the z summation of Ĉ under
// Y-Z and the communication-avoiding algorithm).
func Figure6(o Options) Figure {
	return Figure{
		ID:     "figure-6",
		Title:  "time for collective communication (seconds, simulated)",
		YLabel: "seconds",
		Ps:     o.Ps,
		Series: sweep(o, func(r dycore.RunResult) float64 { return r.Agg.CollectiveTime() }),
	}
}

// Figure7 reproduces Figure 7: communication time of the stencil
// computation (halo exchanges).
func Figure7(o Options) Figure {
	return Figure{
		ID:     "figure-7",
		Title:  "communication time of stencil (seconds, simulated)",
		YLabel: "seconds",
		Ps:     o.Ps,
		Series: sweep(o, func(r dycore.RunResult) float64 { return r.Agg.StencilTime() }),
	}
}

// Figure8 reproduces Figure 8: the total runtime of the dynamical core.
func Figure8(o Options) Figure {
	f := Figure{
		ID:     "figure-8",
		Title:  "total runtime of dynamical core (seconds, simulated)",
		YLabel: "seconds",
		Ps:     o.Ps,
		Series: sweep(o, func(r dycore.RunResult) float64 { return r.Agg.SimTime }),
	}
	f.Notes = append(f.Notes, summarizeFig8(f))
	return f
}

// summarizeFig8 states the paper's headline comparisons from the measured
// series: max runtime reduction vs X-Y and average speedup vs Y-Z.
func summarizeFig8(f Figure) string {
	var xy, yz, ca []float64
	for _, s := range f.Series {
		switch s.Name {
		case dycore.AlgBaselineXY.String():
			xy = s.Values
		case dycore.AlgBaselineYZ.String():
			yz = s.Values
		case dycore.AlgCommAvoid.String():
			ca = s.Values
		}
	}
	maxRed, sum, cnt := 0.0, 0.0, 0
	for i := range ca {
		if ca[i] != ca[i] {
			continue
		}
		if xy != nil && xy[i] == xy[i] {
			if red := 1 - ca[i]/xy[i]; red > maxRed {
				maxRed = red
			}
		}
		if yz != nil && yz[i] == yz[i] {
			sum += yz[i] / ca[i]
			cnt++
		}
	}
	if cnt == 0 {
		return "no feasible comparisons"
	}
	return fmt.Sprintf("CA reduces total runtime by up to %.0f%% vs X-Y (paper: 54%%); avg speedup vs Y-Z %.2fx (paper: 1.4x)",
		100*maxRed, sum/float64(cnt))
}

// TheoryRow is one line of the Section 5.3 comparison: the Θ-model values,
// the Theorem 4.1/4.2 lower bound of the row's non-local collective, and the
// measured communication volume and synchronization count.
type TheoryRow struct {
	P                   int
	Alg                 string
	WModel, SModel      float64
	BytesMeasured       int64
	CollectivesMeasured int64
	ExchangesMeasured   int64
	// WBound is the lower bound on the words one step's non-local
	// collectives move: Theorem 4.1's (costmodel.FilterLowerBound, one
	// n_x-point line with the row's p_x) times the filterings a filtering
	// X-Y rank ran per step, a forward and a back transpose each, or
	// Theorem 4.2's (costmodel.SumLowerBound with the row's p_z) times the
	// z sums a Y-Z or CA rank ran per step. It is 0 where the layout keeps
	// the collective local (p_x = 1 or p_z = 1).
	WBound float64
}

// TheoryTable evaluates the Section 5.3 model against measured counters.
func TheoryTable(o Options) []TheoryRow {
	var rows []TheoryRow
	for _, p := range o.Ps {
		pyYZ, pzYZ, okYZ := YZFactors(p, o.Ny, o.Nz)
		pxXY, pyXY, okXY := XYFactors(p, o.Nx, o.Ny)
		prob := costmodel.Problem{Nx: o.Nx, Ny: o.Ny, Nz: o.Nz, M: o.M, K: o.Steps}
		for _, alg := range figureAlgs {
			var wm, sm float64
			switch alg {
			case dycore.AlgBaselineXY:
				if !okXY {
					continue
				}
				prob.Px, prob.Py, prob.Pz = pxXY, pyXY, 1
				wm, sm = costmodel.WOriginalXY(prob), costmodel.SOriginalXY(prob)
			case dycore.AlgBaselineYZ:
				if !okYZ {
					continue
				}
				prob.Px, prob.Py, prob.Pz = 1, pyYZ, pzYZ
				wm, sm = costmodel.WOriginalYZ(prob), costmodel.SOriginalYZ(prob)
			case dycore.AlgCommAvoid:
				if !okYZ {
					continue
				}
				prob.Px, prob.Py, prob.Pz = 1, pyYZ, pzYZ
				wm, sm = costmodel.WCommAvoid(prob), costmodel.SCommAvoid(prob)
			}
			res, ok := o.run(alg, p)
			if !ok {
				continue
			}
			row := TheoryRow{
				P: p, Alg: alg.String(),
				WModel: wm, SModel: sm,
				BytesMeasured:       res.Agg.BytesSent,
				CollectivesMeasured: res.Agg.Collectives,
				ExchangesMeasured:   res.Count.HaloExchanges,
			}
			applied := float64(o.perStep(row).collectives)
			if alg == dycore.AlgBaselineXY {
				row.WBound = costmodel.FilterLowerBound(o.Nx, prob.Px) * applied / 2
			} else {
				row.WBound = costmodel.SumLowerBound(o.Nx, o.Ny, prob.Pz) * applied
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FormatTheory renders the theory table.
func FormatTheory(rows []TheoryRow) string {
	var sb strings.Builder
	sb.WriteString("== section-5.3: theoretical model vs measured counters ==\n")
	fmt.Fprintf(&sb, "%-8s%-16s%14s%10s%14s%16s%14s%12s\n",
		"p", "algorithm", "W(model)", "S(model)", "W(bound)", "bytes(meas)", "colls(meas)", "exch(meas)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8d%-16s%14.4g%10.4g%14.4g%16d%14d%12d\n",
			r.P, r.Alg, r.WModel, r.SModel, r.WBound, r.BytesMeasured, r.CollectivesMeasured, r.ExchangesMeasured)
	}
	return sb.String()
}

// AllFigures runs every reproduced figure in order, sharing one execution
// of each (algorithm, p) cell across figures.
func AllFigures(o Options) []Figure {
	o.Prime()
	return []Figure{Figure1(o), Figure6(o), Figure7(o), Figure8(o)}
}

// SortedPs returns a copy of ps sorted ascending (helper for flag parsing).
func SortedPs(ps []int) []int {
	out := append([]int(nil), ps...)
	sort.Ints(out)
	return out
}
