package dycore

import (
	"fmt"
	"slices"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

// Algorithm selects which integrator a Setup builds.
type Algorithm int

const (
	// AlgBaselineXY is the original Algorithm 1 under the X-Y decomposition
	// (p_z = 1): no z-collective, distributed-FFT Fourier filtering.
	AlgBaselineXY Algorithm = iota
	// AlgBaselineYZ is the original Algorithm 1 under the Y-Z decomposition
	// (p_x = 1): local filtering, a z-collective per adaptation evaluation.
	AlgBaselineYZ
	// AlgCommAvoid is the communication-avoiding Algorithm 2 (Y-Z
	// decomposition).
	AlgCommAvoid
	// AlgBaseline3D is the original Algorithm 1 on a full 3-D process grid
	// (p_x, p_y, p_z all > 1 allowed): it pays both the distributed-FFT
	// filtering and the z-collective. The paper asserts 2-D decompositions
	// are always more efficient; this algorithm makes that measurable.
	AlgBaseline3D
)

// algNames is the one table of the algorithms' short names: job specs, plans,
// candidate keys and the -alg flags all spell an Algorithm this way.
var algNames = [...]string{AlgBaselineXY: "xy", AlgBaselineYZ: "yz", AlgCommAvoid: "ca", AlgBaseline3D: "3d"}

// AlgorithmNames lists the short names ParseAlgorithm accepts, for messages.
const AlgorithmNames = "ca, yz, xy or 3d"

// ParseAlgorithm returns the algorithm with the given short name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, n := range algNames {
		if n == name {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("dycore: unknown algorithm %q (want %s)", name, AlgorithmNames)
}

// Name returns the algorithm's short name (ca, yz, xy or 3d).
func (a Algorithm) Name() string {
	if a < 0 || int(a) >= len(algNames) {
		return a.String()
	}
	return algNames[a]
}

// MarshalText encodes the algorithm as its short name.
func (a Algorithm) MarshalText() ([]byte, error) {
	if a < 0 || int(a) >= len(algNames) {
		return nil, fmt.Errorf("dycore: cannot encode %s", a)
	}
	return []byte(algNames[a]), nil
}

// UnmarshalText decodes a short name; any other text is an error.
func (a *Algorithm) UnmarshalText(text []byte) (err error) {
	*a, err = ParseAlgorithm(string(text))
	return err
}

// algLabels are the algorithms' long names, for reports.
var algLabels = [...]string{AlgBaselineXY: "original-XY", AlgBaselineYZ: "original-YZ", AlgCommAvoid: "comm-avoiding", AlgBaseline3D: "original-3D"}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algLabels) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algLabels[a]
}

// Setup describes one parallel run configuration: the algorithm, the
// process grid and the numerical configuration. PA and PB are the two
// decomposed extents: (px, py) for X-Y runs and (py, pz) for Y-Z runs; 3-D
// runs (AlgBaseline3D) additionally use PC so the grid is PA×PB×PC =
// px×py×pz.
type Setup struct {
	Alg    Algorithm
	PA, PB int
	PC     int // only for AlgBaseline3D
	Cfg    Config
	// RowStarts, when non-nil, selects a non-uniform y partition (py+1
	// boundaries; see topo.NewWithRows). Nil keeps the uniform partition.
	RowStarts []int
}

// Procs returns the total rank count.
func (s Setup) Procs() int {
	p := s.PA * s.PB
	if s.Alg == AlgBaseline3D {
		p *= s.PC
	}
	return p
}

// procGrid returns (px, py, pz).
func (s Setup) procGrid() (px, py, pz int) {
	switch s.Alg {
	case AlgBaselineXY:
		return s.PA, s.PB, 1
	case AlgBaseline3D:
		return s.PA, s.PB, s.PC
	default:
		return 1, s.PA, s.PB
	}
}

// MinPerRank is the service's layout rule: every decomposed extent leaves
// each rank at least two of the mesh points it splits (p_y ≤ ny/2, …), which
// the communication-avoiding overlap machinery needs. The job service
// validates explicit and planned layouts with it, and the planner enumerates
// and partitions rows within it.
const MinPerRank = 2

// Check reports whether the setup's process grid can split the mesh g with
// at least minPerRank mesh points per rank along every extent: each extent
// must be at least 1 and no larger than the mesh extent it splits divided by
// minPerRank (with 1, the condition topo.New panics on; with MinPerRank, the
// service's rule), and Cfg.ShiftedPoleMirror needs full longitude circles
// per rank (p_x = 1, the condition newCore panics on). The error names the
// grid as the setup states it, PA×PB (×PC for AlgBaseline3D).
func (s Setup) Check(g *grid.Grid, minPerRank int) error {
	px, py, pz := s.procGrid()
	nx, ny, nz := g.Nx/minPerRank, g.Ny/minPerRank, g.Nz/minPerRank
	if min(px, py, pz) >= 1 && px <= nx && py <= ny && pz <= nz {
		if s.Cfg.ShiftedPoleMirror && px > 1 {
			return fmt.Errorf("dycore: ShiftedPoleMirror requires p_x = 1 (full longitude circles per rank); process grid %dx%d has p_x = %d",
				s.PA, s.PB, px)
		}
		return nil
	}
	per := ""
	if minPerRank > 1 {
		per = fmt.Sprintf("/%d", minPerRank)
	}
	switch s.Alg {
	case AlgBaselineXY:
		return fmt.Errorf("dycore: process grid %dx%d must lie within 1x1 … %dx%d (p_x ≤ nx%s, p_y ≤ ny%[5]s)",
			px, py, nx, ny, per)
	case AlgBaseline3D:
		return fmt.Errorf("dycore: process grid %dx%dx%d must lie within 1x1x1 … %dx%dx%d (p_x ≤ nx%s, p_y ≤ ny%[7]s, p_z ≤ nz%[7]s)",
			px, py, pz, nx, ny, nz, per)
	default:
		return fmt.Errorf("dycore: process grid %dx%d must lie within 1x1 … %dx%d (p_y ≤ ny%s, p_z ≤ nz%[5]s)",
			py, pz, ny, nz, per)
	}
}

// HaloWidths returns the halo allocation the setup requires: the deepest
// exchange of its cover per direction, the same on every rank (planCover).
// For the comm-avoiding algorithm it follows the staged-exchange depth
// (= Cfg.M unless 0 < StageM < M selects shallower, more frequent exchanges).
func (s Setup) HaloWidths() (hx, hy, hz int) {
	cv := planCover(s, field.Block{}, nil)
	return cv.hx, cv.hy, cv.hz
}

// Build constructs the topology and integrator for the calling rank.
func (s Setup) Build(c *comm.Comm, g *grid.Grid) (*topo.Topology, Integrator) {
	px, py, pz := s.procGrid()
	hx, hy, hz := s.HaloWidths()
	tp := topo.NewWithRows(c, g, px, py, pz, hx, hy, hz, s.RowStarts)
	switch s.Alg {
	case AlgCommAvoid:
		return tp, NewCommAvoid(s.Cfg, g, tp)
	default:
		return tp, NewBaseline(s.Cfg, g, tp)
	}
}

// StateSetter is implemented by every integrator in this package; SetState
// takes initial conditions and restored snapshots (state.Carry) alike.
type StateSetter interface {
	SetState(*state.State)
}

// InitFunc fills a rank's initial state from pointwise profiles.
type InitFunc func(g *grid.Grid, st *state.State)

// ExchReporter is implemented by integrators that report per-exchanger
// overlap statistics (topo.ExchStats per constructed Exchanger).
type ExchReporter interface {
	ExchStats() []topo.ExchStats
}

// RunResult carries everything a driver collects from one parallel run.
type RunResult struct {
	Setup Setup
	Agg   comm.Aggregate
	Count Counters
	// Exch aggregates per-exchanger overlap accounting over ranks: Begin and
	// Finish counts are summed, exposed/hidden seconds are maximized (the
	// critical-path convention of comm.Aggregate). Ordered as the
	// integrators construct their exchangers.
	Exch []topo.ExchStats
	// Finals are the per-rank final states (rank order) on resultBlock:
	// ξ's owned cells plus the halo one kernel application reads, and an
	// owned-size Carry, so a held result keeps no deep storage alive.
	Finals []*state.State
	// StepsDone is the number of steps actually executed: equal to the
	// requested count unless RunOpts.Boundary ended the run early, or —
	// after an injected crash (Abort non-nil) — the minimum step count any
	// rank completed.
	StepsDone int
	// Abort, when non-nil, reports that fault injection killed a rank (see
	// RunOpts.CrashAt): the run ended early, Finals is nil, Agg and Count
	// cover the work done up to the death, and the caller should restart from
	// its latest checkpoint to make progress.
	Abort *RankFailure
}

// RankFailure is the typed abort raised when fault injection kills a rank
// (RunOpts.CrashAt). It implements error, and marks itself as an injected
// fault so comm.World.Run reports it — rather than one of the receive-poison
// panics the death cascades into on surviving ranks — as the run's cause of
// death.
type RankFailure struct {
	Rank int // world rank that was killed
	Step int // steps the rank had completed when it died
}

// Error implements error.
func (e *RankFailure) Error() string {
	return fmt.Sprintf("dycore: rank %d killed by fault injection after step %d", e.Rank, e.Step)
}

// InjectedFault marks the panic value as deliberate fault injection.
func (e *RankFailure) InjectedFault() {}

// StepHook runs on each rank after every Step, on that rank's state (owned
// region). It is how idealized physics like the Held–Suarez forcing couples
// to the dynamics; it must be pointwise (communication-free).
type StepHook func(g *grid.Grid, st *state.State, step int)

// Run executes K steps of the setup on a fresh world with the given network
// model and initial condition, returning the aggregate statistics and final
// per-rank states. It is the single entry point used by the tests, the
// examples and the benchmark harness.
func Run(s Setup, g *grid.Grid, model comm.NetModel, init InitFunc, steps int) RunResult {
	return RunWithHook(s, g, model, init, steps, nil)
}

// RunWithHook is Run with a per-step hook (nil means none).
func RunWithHook(s Setup, g *grid.Grid, model comm.NetModel, init InitFunc, steps int, hook StepHook) RunResult {
	res, _ := runOnWorld(s, g, model, init, steps, RunOpts{Hook: hook})
	return res
}

// RunWithOpts is the fully controlled entry point: a step-boundary callback
// with a quiesced view of every rank, tracing and fault injection (see
// RunOpts). One segment of a supervised run (balance.Run, which cmd/dycore
// and the job service drive) is one call.
func RunWithOpts(s Setup, g *grid.Grid, model comm.NetModel, init InitFunc, steps int, opts RunOpts) (RunResult, *comm.Recorder) {
	return runOnWorld(s, g, model, init, steps, opts)
}

func runOnWorld(s Setup, g *grid.Grid, model comm.NetModel, init InitFunc, steps int, opts RunOpts) (RunResult, *comm.Recorder) {
	p := s.Procs()
	w := comm.NewWorld(p, model)
	if opts.Faults != nil {
		w.SetFaults(opts.Faults)
	}
	var rec *comm.Recorder
	if opts.Traced {
		rec = w.EnableTrace()
	}
	var ctl *stepCtl
	var ig0 Integrator // rank 0's, whose counters a run reports
	if opts.Boundary != nil {
		tally := Tally(func() (comm.Aggregate, Counters) { return w.Stats(), ig0.Counters() })
		ctl = newStepCtl(p, func(done int, sts []*state.State, comp []float64) bool {
			return opts.Boundary(done, sts, comp, tally)
		})
	}
	hook := opts.Hook
	finals := make([]*state.State, p)
	counts := make([]Counters, p)
	exch := make([][]topo.ExchStats, p)
	done := make([]int, p)
	var abort *RankFailure
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			// An injected rank death is an expected outcome, not a bug:
			// convert it into a typed abort. Anything else keeps panicking.
			if rp, ok := r.(comm.RankPanic); ok {
				if rf, ok := rp.Val.(*RankFailure); ok {
					abort = rf
					return
				}
			}
			panic(r)
		}()
		w.Run(func(c *comm.Comm) {
			if ctl != nil {
				// A panicking rank must release peers parked on the step
				// barrier before the panic propagates to World.Run.
				defer func() {
					if r := recover(); r != nil {
						ctl.abort()
						panic(r)
					}
				}()
			}
			tp, ig := s.Build(c, g)
			if c.Rank() == 0 {
				ig0 = ig
			}
			// Deferred so that a rank killed mid-run still reports its work.
			defer func() { counts[c.Rank()] = ig.Counters() }()
			// The initial condition holds owned cells only: SetState reads
			// nothing else, and a checkpoint's Carry follows its block.
			st := state.New(state.OwnedBlock(tp.Block))
			init(g, st)
			ig.(StateSetter).SetState(st)
			// Setup and bootstrap (communicator splits, the initial exchange
			// and Ĉ) are one-time initialization: exclude them from the
			// measured statistics, like the paper's timings do.
			c.ResetStats()
			for k := 0; k < steps; k++ {
				ig.Step()
				if hook != nil {
					hook(g, ig.Xi(), k)
				}
				done[c.Rank()] = k + 1
				if opts.CrashAt != nil && opts.CrashAt(c.Rank(), k+1) {
					panic(&RankFailure{Rank: c.Rank(), Step: k + 1})
				}
				if ctl != nil && ctl.arrive(k+1, c.Rank(), ig.Xi(), c.CompTime()) {
					break
				}
			}
			ig.Finalize()
			finals[c.Rank()] = final(ig.Xi())
			if er, ok := ig.(ExchReporter); ok {
				exch[c.Rank()] = er.ExchStats()
			}
		})
	}()
	if abort != nil {
		return RunResult{Setup: s, Agg: w.Stats(), Count: counts[0], StepsDone: slices.Min(done), Abort: abort}, rec
	}
	return RunResult{Setup: s, Agg: w.Stats(), Count: counts[0], Exch: mergeExch(exch),
		Finals: finals, StepsDone: done[0]}, rec
}

// resultBlock is the block of a RunResult.Finals entry: b's owned cells plus
// the halo one application of any kernel reads (the baselines' halo),
// whatever halo the integrator runs on, so that a caller can evaluate an
// operator on a result without keeping the integrator's deep storage alive.
func resultBlock(b field.Block) field.Block {
	b.Hx, b.Hy, b.Hz = Setup{Alg: AlgBaselineYZ}.HaloWidths()
	return b
}

// final returns a rank's entry of RunResult.Finals: ξ as the integrator left
// it when ξ is stored on resultBlock (the baselines), else a copy of ξ's
// cells on resultBlock (CA's deep halo), with an owned-size copy of its
// Carry, so that the result keeps neither deep storage nor the integrator's
// Ĉ cache alive.
func final(xi *state.State) *state.State {
	fin := *xi
	if b := resultBlock(xi.B); b != xi.B {
		fin = *state.New(b)
		fin.CopyStored(xi)
		fin.ShiftedPoles = xi.ShiftedPoles
	}
	if c := xi.Carry; c != nil {
		b := state.OwnedBlock(xi.B)
		fin.Carry = &state.Carry{PWI: field.NewF3(b), DBar: field.NewF2(b), PendingSmooth: c.PendingSmooth}
		fin.Carry.CopyOwned(c)
	}
	return &fin
}

// mergeExch folds per-rank exchanger statistics into one list: counts are
// summed over ranks, exposed/hidden seconds maximized (critical path). Every
// rank constructs the same exchangers in the same order, so merging is
// positional.
func mergeExch(perRank [][]topo.ExchStats) []topo.ExchStats {
	var out []topo.ExchStats
	for _, es := range perRank {
		if es == nil {
			continue
		}
		if out == nil {
			out = make([]topo.ExchStats, len(es))
			copy(out, es)
			continue
		}
		for i := range es {
			if i >= len(out) {
				out = append(out, es[i])
				continue
			}
			out[i].Begins += es[i].Begins
			out[i].Finishes += es[i].Finishes
			out[i].ExposedSec = max(out[i].ExposedSec, es[i].ExposedSec)
			out[i].HiddenSec = max(out[i].HiddenSec, es[i].HiddenSec)
		}
	}
	return out
}

// MaxDiffGlobal returns max |a − b| over every owned point of two runs'
// per-rank states, which must together cover the mesh g. It compares by
// global index, so runs under different decompositions are comparable.
func MaxDiffGlobal(g *grid.Grid, a, b []*state.State) float64 {
	// Build dense global arrays from each run, then compare.
	fa := FlattenState(g, a)
	fb := FlattenState(g, b)
	m := 0.0
	for i := range fa {
		d := fa[i] - fb[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// FlattenState packs the owned regions of all per-rank states into one dense
// vector ordered (component, k, j, i), for diagnostics and tests.
func FlattenState(g *grid.Grid, sts []*state.State) []float64 {
	n3 := g.Nx * g.Ny * g.Nz
	n2 := g.Nx * g.Ny
	out := make([]float64, 3*n3+n2)
	for _, st := range sts {
		for c, f := range []*field.F3{st.U, st.V, st.Phi, &st.Psa.F3} {
			b := f.B // p'_sa's is its one level
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						out[c*n3+(k*g.Ny+j)*g.Nx+i] = f.At(i, j, k)
					}
				}
			}
		}
	}
	return out
}
