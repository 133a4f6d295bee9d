// Command bench runs the kernel micro-benchmarks through testing.Benchmark
// and emits the results as JSON (BENCH_kernels.json by default) — a
// machine-readable record of the performance work: the real-FFT polar-filter
// fast path vs the complex reference, the zero-allocation stencil kernels,
// and the steady-state integrator step.
//
// The allocs/op column is the dynamic counterpart of the static allocfree
// check (`go vet -vettool` with cmd/cadyvet): every //cadyvet:allocfree hot
// path here — filter_apply, the three stencil kernels, both steps and the
// rfft row — reports 0 allocs/op. fft_complex's 1 alloc/op is the waived
// nil-scratch convenience path, which this benchmark exercises on purpose.
//
// Usage:
//
//	bench [-o BENCH_kernels.json] [-nx 96 -ny 48 -nz 12]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"cadycore/internal/balance"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fault"
	"cadycore/internal/fft"
	"cadycore/internal/field"
	"cadycore/internal/filter"
	"cadycore/internal/grid"
	"cadycore/internal/harness"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/operators"
	"cadycore/internal/state"
	"cadycore/internal/tune"
)

// result is one benchmark row of the JSON report.
type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	// SimNsPerStep is the LogP-simulated nanoseconds per step of the
	// multi-rank step rows (step_*_overlap, step_*_quiesced); 0 elsewhere.
	SimNsPerStep float64 `json:"sim_ns_per_step,omitempty"`
	// OverlapFraction is hidden/(hidden+exposed) communication time of the
	// multi-rank step rows: the share of communication the critical-path
	// ranks covered with interior compute.
	OverlapFraction float64 `json:"overlap_fraction,omitempty"`
	// CompImbalance is the max/min per-rank simulated compute ratio of the
	// multi-rank step rows (1 = perfectly balanced; 0 = single rank).
	CompImbalance float64 `json:"comp_imbalance,omitempty"`
	// Exchangers carries the per-exchanger Begin/Finish and hidden/exposed
	// accounting of the multi-rank step rows.
	Exchangers []exchRow `json:"exchangers,omitempty"`
}

// exchRow is one exchanger's overlap accounting in the JSON report.
type exchRow struct {
	Label     string  `json:"label"`
	Begins    int64   `json:"begins"`
	Finishes  int64   `json:"finishes"`
	HiddenNs  float64 `json:"hidden_ns"`
	ExposedNs float64 `json:"exposed_ns"`
}

func run(name string, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	res := result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
	fmt.Printf("%-28s %12.0f ns/op %8d allocs/op %10d B/op\n",
		res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	return res
}

// stepParallel runs a multi-rank LogP step benchmark: `steps` steps of the
// algorithm on a TianheLike world, with the Held–Suarez hook keeping the
// forcing path hot. It reports both the real wall clock per step (ns_per_op)
// and the simulated step time with its overlap accounting.
func stepParallel(name string, alg dycore.Algorithm, g *grid.Grid, procs, steps int, noOverlap bool) result {
	py, pz, ok := harness.YZFactors(procs, g.Ny, g.Nz)
	if !ok {
		fmt.Fprintf(os.Stderr, "no Y-Z layout for p=%d on %dx%dx%d; skipping %s\n",
			procs, g.Nx, g.Ny, g.Nz, name)
		return result{Name: name}
	}
	cfg := dycore.DefaultConfig()
	cfg.Dt1, cfg.Dt2 = 40, 240
	cfg.NoOverlap = noOverlap
	set := dycore.Setup{Alg: alg, PA: py, PB: pz, Cfg: cfg}
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, cfg.Dt2) }
	t0 := time.Now()
	res := dycore.RunWithHook(set, g, comm.TianheLike(), heldsuarez.InitialState, steps, hook)
	wall := time.Since(t0)
	row := result{
		Name:            name,
		NsPerOp:         float64(wall.Nanoseconds()) / float64(steps),
		N:               steps,
		SimNsPerStep:    res.Agg.SimTime * 1e9 / float64(steps),
		OverlapFraction: res.Agg.OverlapFraction(),
		CompImbalance:   res.Agg.CompImbalance(),
	}
	for _, ex := range res.Exch {
		row.Exchangers = append(row.Exchangers, exchRow{
			Label:     ex.Label,
			Begins:    ex.Begins,
			Finishes:  ex.Finishes,
			HiddenNs:  ex.HiddenSec * 1e9,
			ExposedNs: ex.ExposedSec * 1e9,
		})
	}
	fmt.Printf("%-28s %12.0f ns/op %12.0f sim-ns/step %8.1f%% overlapped\n",
		row.Name, row.NsPerOp, row.SimNsPerStep, 100*row.OverlapFraction)
	return row
}

// compareOverlap prints the overlapped-vs-quiesced LogP step time of the
// figure-6/7/8 cells (the -compare mode).
func compareOverlap(g *grid.Grid, procs, steps int) {
	fmt.Printf("overlap comparison on %dx%dx%d, p=%d (%d steps, TianheLike):\n",
		g.Nx, g.Ny, g.Nz, procs, steps)
	for _, alg := range []dycore.Algorithm{dycore.AlgBaselineYZ, dycore.AlgCommAvoid} {
		ov := stepParallel("step_"+alg.String()+"_overlap", alg, g, procs, steps, false)
		qu := stepParallel("step_"+alg.String()+"_quiesced", alg, g, procs, steps, true)
		if ov.SimNsPerStep <= 0 || qu.SimNsPerStep <= 0 {
			continue
		}
		fmt.Printf("  %-12s sim step %.3f ms overlapped vs %.3f ms quiesced (%.1f%% faster, overlap fraction %.1f%%)\n",
			alg.String(), ov.SimNsPerStep/1e6, qu.SimNsPerStep/1e6,
			100*(1-ov.SimNsPerStep/qu.SimNsPerStep), 100*ov.OverlapFraction)
	}
}

// rebalRow is one row of the -rebalance report: a full 24-step simulation of
// the same configuration under different fault/runtime conditions.
type rebalRow struct {
	Name string `json:"name"`
	// SimTimeS is the end-to-end simulated seconds (for the rebalanced row:
	// including the modeled migration cost).
	SimTimeS      float64 `json:"sim_time_s"`
	CompImbalance float64 `json:"comp_imbalance"`
	Migrations    int     `json:"migrations,omitempty"`
}

// compareRebalance runs the straggler scenario of the live-rebalancing soak
// (48x24x8 Y-Z mesh on 4 ranks, rank 3 slowed 10x) three ways — no fault,
// static layout under the straggler, and live-rebalanced under the straggler
// — and writes the comparison to `out`.
func compareRebalance(out string) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	cfg.Dt1, cfg.Dt2 = 40, 240
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 4, PB: 1, Cfg: cfg}
	const steps = 24
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, cfg.Dt2) }
	plan := fault.Plan{Seed: 1, Stragglers: []fault.Straggler{{Rank: 3, Scale: 10}}}
	pol := balance.Policy{Window: 4, Patience: 1, Cooldown: 1}

	row := func(name string, inject bool) rebalRow {
		opts := dycore.RunOpts{Hook: hook}
		if inject {
			opts.Faults = fault.New(plan).CommFaults(set.Procs())
		}
		res, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, steps, opts)
		return rebalRow{Name: name, SimTimeS: res.Agg.SimTime, CompImbalance: res.Agg.CompImbalance()}
	}
	rows := []rebalRow{row("baseline_no_fault", false), row("static_straggler", true)}

	cand, err := balance.CandidateOf(set)
	if err == nil {
		var ctl *balance.Controller
		if ctl, err = balance.NewController(pol, g, cfg, tune.DefaultProfile(), steps, cand); err == nil {
			var o balance.Outcome
			if o, err = balance.Run(balance.RunSpec{
				Grid: g, Model: comm.TianheLike(), Init: heldsuarez.InitialState, Steps: steps, Hook: hook,
				Controller: ctl, Faults: fault.New(plan), MaxRestarts: 3,
			}); err == nil {
				rows = append(rows, rebalRow{
					Name: "rebalanced_straggler", SimTimeS: o.Agg.SimTime,
					CompImbalance: o.Agg.CompImbalance(), Migrations: len(o.Migrations),
				})
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebalance:", err)
		os.Exit(1)
	}

	for _, r := range rows {
		fmt.Printf("%-24s sim %.4f s  comp imbalance %.3f  migrations %d\n",
			r.Name, r.SimTimeS, r.CompImbalance, r.Migrations)
	}
	speedup := rows[1].SimTimeS / rows[2].SimTimeS
	fmt.Printf("rebalanced is %.1f%% faster than the static layout under the straggler\n",
		100*(1-rows[2].SimTimeS/rows[1].SimTimeS))

	report := map[string]interface{}{
		"mesh":                  map[string]int{"nx": g.Nx, "ny": g.Ny, "nz": g.Nz},
		"procs":                 set.Procs(),
		"steps":                 steps,
		"straggler":             map[string]float64{"rank": 3, "scale": 10},
		"policy":                pol,
		"results":               rows,
		"speedup_vs_static":     speedup,
		"rebalanced_faster_pct": 100 * (1 - rows[2].SimTimeS/rows[1].SimTimeS),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", out)
}

func benchState(g *grid.Grid) (*state.State, field.Block) {
	b := field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
	st := state.New(b)
	heldsuarez.InitialState(g, st)
	st.FillLocalBounds()
	return st, b
}

func main() {
	out := flag.String("o", "BENCH_kernels.json", "output JSON file")
	nx := flag.Int("nx", 96, "mesh points in longitude")
	ny := flag.Int("ny", 48, "mesh points in latitude")
	nz := flag.Int("nz", 12, "mesh levels")
	procs := flag.Int("p", 16, "ranks for the multi-rank step rows")
	steps := flag.Int("steps", 2, "steps per multi-rank step row")
	compare := flag.Bool("compare", false,
		"compare overlapped vs quiesced LogP step time on the figure-6/7/8 mesh and exit")
	rebal := flag.Bool("rebalance", false,
		"compare static vs live-rebalanced layout under a seeded straggler, write BENCH_rebalance.json and exit")
	flag.Parse()

	g := grid.New(*nx, *ny, *nz)
	if *compare {
		compareOverlap(g, *procs, *steps)
		return
	}
	if *rebal {
		o := *out
		if o == "BENCH_kernels.json" {
			o = "BENCH_rebalance.json"
		}
		compareRebalance(o)
		return
	}
	var results []result

	// FFT: the complex plan vs the half-spectrum real plan at the mesh's
	// zonal extent. The real plan is the polar filter's fast path.
	n := g.Nx
	results = append(results, run("fft_complex", func(b *testing.B) {
		p := fft.NewPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%7), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Forward(x)
		}
	}))
	results = append(results, run("fft_real_halfspectrum", func(b *testing.B) {
		rp := fft.NewRealPlan(n)
		src := make([]float64, n)
		for i := range src {
			src[i] = float64(i % 7)
		}
		spec := make([]complex128, rp.SpecLen())
		scratch := make([]complex128, rp.ScratchLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rp.Forward(src, spec, scratch)
		}
	}))

	// Polar filter over the full owned rect (rfft path, allocation-free).
	results = append(results, run("filter_apply", func(b *testing.B) {
		st, blk := benchState(g)
		rng := rand.New(rand.NewSource(1))
		for i := range st.Phi.Data {
			st.Phi.Data[i] = rng.NormFloat64()
		}
		f := filter.New(g, 60)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Apply(st.Phi, blk.Owned())
		}
	}))

	// Stencil kernels over the owned rect.
	results = append(results, run("adaptation_kernel", func(b *testing.B) {
		st, blk := benchState(g)
		sur := operators.NewSurface(blk)
		sur.Update(st.Psa)
		divp := field.NewF3(blk)
		operators.DivP(g, st.U, st.V, sur, divp, blk.Owned())
		cres := operators.NewCRes(blk)
		operators.CSum(g, nil, nil, divp, cres, blk.Owned(), 0, g.Nz)
		out := operators.NewTendency(blk)
		cfg := operators.DefaultAdaptConfig()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			operators.Adaptation(g, cfg, st, sur, cres, out, blk.Owned())
		}
	}))
	results = append(results, run("advection_kernel", func(b *testing.B) {
		st, blk := benchState(g)
		sur := operators.NewSurface(blk)
		sur.Update(st.Psa)
		divp := field.NewF3(blk)
		operators.DivP(g, st.U, st.V, sur, divp, blk.Owned())
		cres := operators.NewCRes(blk)
		operators.CSum(g, nil, nil, divp, cres, blk.Owned(), 0, g.Nz)
		cres.PWI.FillXPeriodic()
		cres.DBar.FillXPeriodic()
		field.FillPolesY(cres.PWI, field.Even, field.CenterY)
		out := operators.NewTendency(blk)
		sc := operators.NewAdvScratch(blk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			operators.AdvectionScratch(g, st, sur, cres, out, blk.Owned(), sc)
		}
	}))
	results = append(results, run("smoothing_kernel", func(b *testing.B) {
		st, blk := benchState(g)
		smo := operators.NewSmoother(g, 1.0)
		dst := state.New(blk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			smo.SmoothFull(st, dst, blk.Owned())
		}
	}))

	// Steady-state single-rank integrator steps (the 0 allocs/op claim).
	for _, alg := range []dycore.Algorithm{dycore.AlgBaselineYZ, dycore.AlgCommAvoid} {
		alg := alg
		results = append(results, run("step_"+alg.String(), func(b *testing.B) {
			cfg := dycore.DefaultConfig()
			cfg.Dt1, cfg.Dt2 = 40, 240
			s := dycore.Setup{Alg: alg, PA: 1, PB: 1, Cfg: cfg}
			w := comm.NewWorld(1, comm.Zero())
			w.Run(func(c *comm.Comm) {
				tp, ig := s.Build(c, g)
				st := state.New(tp.Block)
				heldsuarez.InitialState(g, st)
				ig.(dycore.StateSetter).SetState(st)
				ig.Step() // warm up exchange buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ig.Step()
				}
			})
		}))
	}

	// Multi-rank LogP step rows: overlapped vs quiesced, with the
	// per-exchanger hidden/exposed split (the overlap-fraction observable).
	for _, alg := range []dycore.Algorithm{dycore.AlgBaselineYZ, dycore.AlgCommAvoid} {
		results = append(results,
			stepParallel("step_"+alg.String()+"_overlap", alg, g, *procs, *steps, false),
			stepParallel("step_"+alg.String()+"_quiesced", alg, g, *procs, *steps, true))
	}

	report := map[string]interface{}{
		"mesh":    map[string]int{"nx": g.Nx, "ny": g.Ny, "nz": g.Nz},
		"results": results,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
