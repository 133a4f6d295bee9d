package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cadycore/internal/comm"
	"cadycore/internal/diag"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

// dycoreCase is one dycore workload: a scheme on a process grid and mesh, run
// for a fixed number of steps so that every count repeats exactly.
type dycoreCase struct {
	name       string
	alg        dycore.Algorithm
	pa, pb     int
	nx, ny, nz int
	steps      int // primary pass, warm-up included; the traced pass runs half
}

const (
	// warmupSteps are excluded from timing and counted in setup_s: the first
	// steps grow the exchange buffers and fault in the work arrays.
	warmupSteps = 2
	// setupReps is how many times set-up (world, build, state, warm-up) is
	// measured in one run; setup_s is their median.
	setupReps = 7
	// gateSteps is the length of the reference comparison.
	gateSteps = 6
	// gateTol bounds MaxDiffGlobal/(1+max|ref|) between the workload's
	// layout and the 1×1 run of the same scheme (4×2 measures ~2e-13).
	gateTol = 1e-12
	// serialRefSteps is the length of the 1×1 baseline run that
	// dycore.parallel_speedup divides by (warm-up included).
	serialRefSteps = 12
)

// modelTimeCap bounds the model time one run covers. At this resolution the
// scheme is not stable for long: a 1e-3 perturbation e-folds every ~26 min of
// model time and an unperturbed run goes non-finite after ~9 h, whatever the
// time step. The cost of a step does not depend on Δt, so long runs shrink Δt2
// (from cmd/bench's 240 s, Δt1 = Δt2/6) to stay inside 90 min, where seeded
// and unseeded trajectories still agree to plotting accuracy.
const modelTimeCap = 5400.0

func (c dycoreCase) setup() dycore.Setup {
	cfg := dycore.DefaultConfig()
	cfg.M = 3
	cfg.Dt2 = math.Min(240, modelTimeCap/float64(c.steps))
	cfg.Dt1 = cfg.Dt2 / 6
	return dycore.Setup{Alg: c.alg, PA: c.pa, PB: c.pb, Cfg: cfg}
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	failures          []string
	// tailPct is the percentile unit_ms_tail stands for at this sample count.
	tailPct int
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// timedRun is one dycore.RunWithOpts call, timed at the step-hook returns of
// the rank that owns row 0 / level 0.
type timedRun struct {
	res   dycore.RunResult
	start time.Time
	ends  []time.Time // hook return of step k on the row-0/level-0 rank
	cpu   []float64   // process CPU seconds at that moment
	err   error
}

// setupTime is run start → end of warm-up.
func (t *timedRun) setupTime() time.Duration { return t.ends[warmupSteps-1].Sub(t.start) }

// timed returns the steps after the warm-up as a series (n = steps − warmupSteps).
func (t *timedRun) timed() *series {
	s := &series{start: t.ends[warmupSteps-1], cpu0: t.cpu[warmupSteps-1]}
	for k := warmupSteps; k < len(t.ends); k++ {
		s.add(ms(t.ends[k].Sub(t.ends[k-1])), t.ends[k], t.cpu[k])
	}
	return s
}

// runTimed runs the setup through dycore.RunWithOpts exactly as cmd/dycore
// does (Held–Suarez hook, no step barrier), from a collected heap so that
// peak memory does not depend on what ran before. A panic inside the run is
// an aborted run, reported as err.
func runTimed(set dycore.Setup, g *grid.Grid, init dycore.InitFunc, steps int) (t timedRun) {
	hs := heldsuarez.Standard()
	dt2 := set.Cfg.Dt2
	t.ends, t.cpu = make([]time.Time, steps), make([]float64, steps)
	hook := func(g *grid.Grid, st *state.State, k int) {
		hs.Apply(g, st, dt2)
		if b := st.B; b.I0 == 0 && b.J0 == 0 && b.K0 == 0 {
			t.ends[k], t.cpu[k] = time.Now(), usage().cpuSec
		}
	}
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("run aborted: %v", r)
		}
	}()
	runtime.GC()
	t.start = time.Now()
	t.res, _ = dycore.RunWithOpts(set, g, comm.TianheLike(), init, steps, dycore.RunOpts{Hook: hook})
	if t.res.Abort != nil {
		t.err = t.res.Abort
	} else if t.res.StepsDone != steps {
		t.err = fmt.Errorf("ran %d of %d steps", t.res.StepsDone, steps)
	}
	return t
}

// checkPhysical is the per-run output check: finite state, mean surface
// pressure 1000 hPa ± 0.01.
func checkPhysical(g *grid.Grid, finals []*state.State) error {
	if !diag.AllFinite(finals) {
		return fmt.Errorf("final state is not finite")
	}
	if p := diag.MeanSurfacePressure(g, finals) / 100; math.Abs(p-1000) > 0.01 {
		return fmt.Errorf("mean surface pressure %.4f hPa, want 1000 ± 0.01", p)
	}
	return nil
}

// gate runs the first gateSteps steps in the workload's layout and on 1×1
// with the same scheme and inputs, and requires them to agree to gateTol. It
// returns the layout run, whose rank-0 final state the replays reuse.
func gate(set dycore.Setup, g *grid.Grid, init dycore.InitFunc) (par dycore.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reference run aborted: %v", r)
		}
	}()
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, _ int) { hs.Apply(g, st, set.Cfg.Dt2) }
	ref := set
	ref.PA, ref.PB = 1, 1
	// Collect before each run, as runTimed does: whether the collector gets
	// to the previous run's arrays first is otherwise worth 10 % of peak RSS.
	runtime.GC()
	par = dycore.RunWithHook(set, g, comm.TianheLike(), init, gateSteps, hook)
	runtime.GC()
	ser := dycore.RunWithHook(ref, g, comm.TianheLike(), init, gateSteps, hook)
	scale := 0.0
	for _, v := range dycore.FlattenState(g, ser.Finals) {
		scale = math.Max(scale, math.Abs(v))
	}
	if rel := dycore.MaxDiffGlobal(g, par.Finals, ser.Finals) / (1 + scale); !(rel <= gateTol) {
		return par, fmt.Errorf("first %d steps differ from the 1x1 reference by %.3g (tolerance %.0g)", gateSteps, rel, gateTol)
	}
	return par, nil
}

// runDycore runs one dycore workload: the end-to-end pass (traced false) or
// the per-layer pass (traced true: an untraced half-length run for the counts
// and the tracing-overhead base, the traced half-length run, the replays).
func runDycore(c dycoreCase, seed int64, traced bool, tracePath string, env map[string]any) outcome {
	g := grid.New(c.nx, c.ny, c.nz)
	set := c.setup()
	init := perturbedInit(seed)
	out := outcome{metrics: map[string]float64{}}
	steps := c.steps
	if traced {
		steps = c.steps / 2
	}
	out.attempted = steps

	var setups []float64
	if !traced {
		for i := 0; i < setupReps-1; i++ {
			t := runTimed(set, g, init, warmupSteps)
			if t.err != nil {
				out.fail(steps, "set-up run: %v", t.err)
				return out
			}
			setups = append(setups, t.setupTime().Seconds())
		}
	}
	t := runTimed(set, g, init, steps)
	if t.err != nil {
		out.fail(steps, "%v", t.err)
		return out
	}
	if err := checkPhysical(g, t.res.Finals); err != nil {
		out.fail(steps, "%v", err)
	}
	par, err := gate(set, g, init)
	if err != nil {
		out.fail(steps, "%v", err)
	}
	ts := t.timed()
	if !traced {
		ts.endToEnd(out.metrics)
		out.metrics["setup_s"] = median(append(setups, t.setupTime().Seconds()))
		out.metrics["peak_rss_mb"] = usage().peakRSSMB
		return out
	}
	p50 := median(ts.lat)
	if out.failed > 0 {
		return out
	}

	m := out.metrics
	out.tailPct, m["unit_ms_tail"] = tail(ts.lat)
	countMetrics(m, t.res, par)
	last := len(ts.end) - 1
	m["dycore.core_utilisation"] = (ts.cpu[last] - ts.cpu0) / (ts.end[last].Sub(ts.start).Seconds() * float64(runtime.GOMAXPROCS(0)))
	b0 := par.Finals[0].B
	m["topo.halo_points_share"] = float64(b0.WithHalo().Count()-b0.Owned().Count()) / float64(b0.Owned().Count())

	tr, tracedP50, err := runTraced(set, g, init, steps)
	if err != nil {
		out.fail(steps, "traced pass: %v", err)
		return out
	}
	m["bench.trace_overhead_share"] = tracedP50/p50 - 1
	m["dycore.build_ms"], m["dycore.rank_skew_ms"] = buildAndSkew(tr, steps)
	total, self, coverage := tr.selfTimes()
	m["bench.span_coverage"] = coverage

	rp := replayKernels(g, set, par.Finals[0])
	rp.addComm(g, set, t.res)
	for k, v := range rp.metrics {
		m[k] = v
	}
	perStep := m["dycore.c_evals_per_step"]*(rp.adaptSec+rp.csumSec) + advectCallsPerStep*rp.advectSec +
		m["filter.calls_per_step"]*rp.filterSec + m["dycore.smooth_calls_per_step"]*rp.smoothSec + rp.hsSec
	m["dycore.parallel_speedup"] = 1
	if set.Procs() == 1 && c.alg == dycore.AlgBaselineYZ {
		// Only the plain baseline calls each kernel once per operator
		// evaluation on the owned block, so only there do replay time ×
		// calls per step add up to the step.
		m["dycore.replay_coverage"] = perStep * 1e3 / p50
	} else {
		ser := set
		ser.Alg, ser.PA, ser.PB = dycore.AlgBaselineYZ, 1, 1
		st := runTimed(ser, g, init, serialRefSteps)
		if st.err != nil {
			out.fail(steps, "serial reference: %v", st.err)
			return out
		}
		m["dycore.parallel_speedup"] = median(st.timed().lat) / p50
	}

	env["replay_s"] = rp.metrics
	env["span_total_s"], env["span_self_s"] = secondsMap(total), secondsMap(self)
	if err := tr.write(tracePath, env); err != nil {
		out.fail(steps, "%v", err)
	}
	return out
}

// advectCallsPerStep is fixed by the scheme: one nonlinear iteration of three
// advection updates per step.
const advectCallsPerStep = 3

func secondsMap(in map[string]time.Duration) map[string]float64 {
	out := make(map[string]float64, len(in))
	for k, v := range in {
		out[k] = v.Seconds()
	}
	return out
}

// runTotals are the figures of a RunResult that grow with the run length, by
// the name of the per-step metric they feed: exact counts, and simulated LogP
// seconds as sim-ms.
func runTotals(res dycore.RunResult) map[string]float64 {
	a := res.Agg
	m := map[string]float64{
		"comm.msgs_per_step":              float64(a.MsgsSent),
		"comm.bytes_per_step":             float64(a.BytesSent),
		"comm.collectives_per_step":       float64(a.Collectives),
		"comm.sim_compute_ms_per_step":    a.CompTimeMax * 1e3,
		"comm.sim_stencil_ms_per_step":    a.StencilTime() * 1e3,
		"comm.sim_collective_ms_per_step": a.CollectiveTime() * 1e3,
		"dycore.sim_step_ms":              a.SimTime * 1e3,
		"dycore.halo_rounds_per_step":     float64(res.Count.HaloExchanges),
		"dycore.c_evals_per_step":         float64(res.Count.CEvaluations),
		"dycore.smooth_calls_per_step":    float64(res.Count.SmoothingCalls),
		"filter.calls_per_step":           float64(res.Count.FilterCalls),
	}
	for _, e := range res.Exch {
		m["topo.begins_per_step"] += float64(e.Begins)
		m["topo.exposed_sim_ms_per_step"] += e.ExposedSec * 1e3
		m["topo.hidden_sim_ms_per_step"] += e.HiddenSec * 1e3
	}
	return m
}

// countMetrics fills the metrics that come from the public RunResult. The
// per-step figures are the difference of two runs of different length over
// the difference in steps, which cancels the one-off bootstrap exchange and
// Ĉ evaluation that the integrators' counters include.
func countMetrics(m map[string]float64, long, short dycore.RunResult) {
	n := float64(long.StepsDone - short.StepsDone)
	base := runTotals(short)
	for name, v := range runTotals(long) {
		m[name] = (v - base[name]) / n
	}
	m["comm.comp_imbalance"] = long.Agg.CompImbalance()
	m["comm.overlap_fraction"] = long.Agg.OverlapFraction()
}

// runTraced is the traced pass: the benchmark owns the rank loop (the body of
// dycore's own runner, without its step barrier) and records a span around
// each call into the dycore and heldsuarez layers. It returns the spans and
// the median traced step time in ms on rank 0.
func runTraced(set dycore.Setup, g *grid.Grid, init dycore.InitFunc, steps int) (tr *tracer, p50 float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run aborted: %v", r)
		}
	}()
	p := set.Procs()
	tr = newTracer(p, 2*steps+8)
	hs := heldsuarez.Standard()
	finals := make([]*state.State, p)
	comm.NewWorld(p, comm.TianheLike()).Run(func(c *comm.Comm) {
		l := tr.lanes[c.Rank()]
		root := l.begin("run", -1, 0, 0)
		s := l.begin("dycore.build", root, 0, 0)
		var tp *topo.Topology
		var ig dycore.Integrator
		tp, ig = set.Build(c, g)
		l.end(s)
		s = l.begin("state.init", root, 0, 0)
		st := state.New(tp.Block)
		init(g, st)
		ig.(dycore.StateSetter).SetState(st)
		l.end(s)
		c.ResetStats()
		for k := 0; k < steps; k++ {
			s = l.begin("dycore.step", root, 0, k)
			ig.Step()
			l.end(s)
			s = l.begin("heldsuarez.apply", root, 0, k)
			hs.Apply(g, ig.Xi(), set.Cfg.Dt2)
			l.end(s)
		}
		s = l.begin("dycore.finalize", root, 0, 0)
		ig.Finalize()
		l.end(s)
		finals[c.Rank()] = ig.Xi()
		l.end(root)
	})
	if err := checkPhysical(g, finals); err != nil {
		return nil, 0, err
	}
	var ends []time.Duration
	for _, s := range tr.lanes[0].spans {
		if s.Name == "heldsuarez.apply" {
			ends = append(ends, s.End)
		}
	}
	var durs []float64
	for k := warmupSteps; k < len(ends); k++ {
		durs = append(durs, ms(ends[k]-ends[k-1]))
	}
	return tr, median(durs), nil
}

// buildAndSkew reads two figures off the spans: the median over ranks of the
// build span, and the median over timed steps of the gap between the first
// and the last rank to end the step.
func buildAndSkew(tr *tracer, steps int) (buildMs, skewMs float64) {
	var builds []float64
	first, last := make([]time.Duration, steps), make([]time.Duration, steps)
	for _, l := range tr.lanes {
		for _, s := range l.spans {
			switch s.Name {
			case "dycore.build":
				builds = append(builds, ms(s.End-s.Start))
			case "heldsuarez.apply":
				if first[s.K] == 0 || s.End < first[s.K] {
					first[s.K] = s.End
				}
				if s.End > last[s.K] {
					last[s.K] = s.End
				}
			}
		}
	}
	var skews []float64
	for k := warmupSteps; k < steps; k++ {
		skews = append(skews, ms(last[k]-first[k]))
	}
	return median(builds), median(skews)
}
