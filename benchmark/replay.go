package main

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fft"
	"cadycore/internal/field"
	"cadycore/internal/filter"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/operators"
	"cadycore/internal/state"
	"cadycore/internal/tune"
)

// replayReps is the number of timed repetitions behind every replay figure
// (the median is reported).
const replayReps = 30

// replay holds the per-layer replay figures of one run: each times a layer's
// public entry point, called by the benchmark, on the geometry of the
// workload's polar (rank 0) block.
type replay struct {
	metrics map[string]float64
	// seconds per call, kept for dycore.replay_coverage
	adaptSec, csumSec, advectSec, filterSec, smoothSec, hsSec float64
}

// replayKernels times the compute layers on st, the rank-0 state of a run of
// set (block, halo widths and halo contents as the integrator left them).
func replayKernels(g *grid.Grid, set dycore.Setup, st *state.State) *replay {
	rp := &replay{metrics: map[string]float64{}}
	blk := st.B
	owned := blk.Owned()
	pts := float64(owned.Count())

	// fft: one real round trip of a zonal row.
	plan := fft.NewRealPlan(g.Nx)
	row := append([]float64(nil), st.Phi.Row(blk.J0, blk.K0)[st.Phi.XOff(0):st.Phi.XOff(0)+g.Nx]...)
	spec := make([]complex128, plan.SpecLen())
	scratch := make([]complex128, plan.ScratchLen())
	rp.metrics["fft.rfft_roundtrip_us"] = 1e6 * timeCalls(replayReps, 200, func() {
		plan.Forward(row, spec, scratch)
		plan.Inverse(spec, row, scratch)
	})

	// The operator inputs, built the way the integrators build them.
	sur := operators.NewSurface(blk)
	sur.Update(st.Psa)
	divp := field.NewF3(blk)
	cres := operators.NewCRes(blk)
	var csSc operators.CSumScratch
	csum := func() {
		operators.DivP(g, st.U, st.V, sur, divp, owned)
		operators.CSumWith(g, nil, nil, divp, cres, owned, owned.K0, owned.K1, &csSc)
	}
	csum()
	cres.PWI.FillXPeriodic()
	cres.DBar.FillXPeriodic()
	field.FillPolesY(cres.PWI, field.Even, field.CenterY)
	field.FillPolesY2(cres.DBar, field.Even)
	tnd := operators.NewTendency(blk)
	advSc := operators.NewAdvScratch(blk)
	smo := operators.NewSmoother(g, set.Cfg.Beta)
	dst := state.New(blk)
	adapt := func() { operators.Adaptation(g, set.Cfg.Adapt, st, sur, cres, tnd, owned) }
	advect := func() { operators.AdvectionScratch(g, st, sur, cres, tnd, owned, advSc) }
	smooth := func() { smo.SmoothFull(st, dst, owned) }

	// filter: one F̃ application is three 3-D fields and one 2-D field.
	flt := filter.New(g, set.Cfg.FilterCutoffDeg)
	copy(tnd.DU.Data, st.U.Data)
	copy(tnd.DV.Data, st.V.Data)
	copy(tnd.DPhi.Data, st.Phi.Data)
	copy(tnd.DPsa.Data, st.Psa.Data)
	rp.filterSec = timeCalls(replayReps, 1, func() {
		flt.Apply(tnd.DU, owned)
		flt.Apply(tnd.DV, owned)
		flt.Apply(tnd.DPhi, owned)
		flt.Apply2(tnd.DPsa, owned)
	})

	rp.csumSec = timeCalls(replayReps, 1, csum)
	rp.adaptSec = timeCalls(replayReps, 1, adapt)
	rp.advectSec = timeCalls(replayReps, 1, advect)
	rp.smoothSec = timeCalls(replayReps, 1, smooth)

	// Mallocs counts the whole process, so an allocation by the runtime or,
	// on the service workloads, by a server's background loop would show as a
	// fraction of one per call: take the cleanest of ten rounds.
	allocs := math.Inf(1)
	for round := 0; round < 10; round++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < replayReps/3; i++ {
			csum()
			adapt()
			advect()
			smooth()
		}
		runtime.ReadMemStats(&ms1)
		allocs = math.Min(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(4*(replayReps/3)))
	}
	rp.metrics["operators.allocs_per_call"] = allocs

	hs := heldsuarez.Standard()
	forced := st.Clone()
	rp.hsSec = timeCalls(replayReps, 1, func() { hs.Apply(g, forced, set.Cfg.Dt2) })

	rp.metrics["filter.apply_ms"] = rp.filterSec * 1e3
	rp.metrics["operators.csum_ns_per_pt"] = rp.csumSec * 1e9 / pts
	rp.metrics["operators.adapt_ns_per_pt"] = rp.adaptSec * 1e9 / pts
	rp.metrics["operators.advect_ns_per_pt"] = rp.advectSec * 1e9 / pts
	rp.metrics["operators.smooth_ns_per_pt"] = rp.smoothSec * 1e9 / pts
	rp.metrics["heldsuarez.apply_ms_per_step"] = rp.hsSec * 1e3
	return rp
}

// addComm times the communication layers the run used, on the zero-cost
// network model so that only the runtime's own wall-clock work is measured: a
// ping-pong of the run's mean halo message, the z-group collective of Ĉ (a
// ring Allgather of the rank-0 plane), and one full halo exchange at the
// scheme's halo widths on the run's process grid. A layout that sends no
// message leaves all three at 0.
func (rp *replay) addComm(g *grid.Grid, set dycore.Setup, res dycore.RunResult) {
	const inner = 100
	rp.metrics["comm.p2p_us"], rp.metrics["comm.zcollective_us"], rp.metrics["topo.exchange_us"] = 0, 0, 0
	if n := res.Agg.ExchangeMsgs(); n > 0 {
		buf := make([]float64, res.Agg.ExchangeBytes()/n/8)
		var sec float64
		comm.NewWorld(2, comm.Zero()).Run(func(c *comm.Comm) {
			peer := 1 - c.Rank()
			roundTrip := func() {
				if c.Rank() == 0 {
					c.Send(peer, 0, buf)
					c.RecvInto(peer, 0, buf)
				} else {
					c.RecvInto(peer, 0, buf)
					c.Send(peer, 0, buf)
				}
			}
			if s := timeCalls(replayReps, inner, roundTrip); c.Rank() == 0 {
				sec = s
			}
		})
		rp.metrics["comm.p2p_us"] = sec * 1e6 / 2
	}
	if pz := set.PB; pz > 1 {
		plane := g.Nx * (g.Ny / set.PA)
		var sec float64
		comm.NewWorld(pz, comm.Zero()).Run(func(c *comm.Comm) {
			local, all := make([]float64, plane), make([]float64, pz*plane)
			if s := timeCalls(replayReps, inner, func() { c.Allgather(local, all) }); c.Rank() == 0 {
				sec = s
			}
		})
		rp.metrics["comm.zcollective_us"] = sec * 1e6
	}
	if set.Procs() > 1 {
		_, hy, hz := set.HaloWidths()
		if set.PA == 1 {
			hy = 0
		}
		if set.PB == 1 {
			hz = 0
		}
		var sec float64
		comm.NewWorld(set.Procs(), comm.Zero()).Run(func(c *comm.Comm) {
			tp, _ := set.Build(c, g)
			ex := tp.NewExchanger(0, hy, hz)
			// The payload of the integrators' exchange: ξ plus the cached Ĉ.
			st := state.New(tp.Block)
			f3s := append(st.F3s(), field.NewF3(tp.Block))
			f2s := append(st.F2s(), field.NewF2(tp.Block))
			if s := timeCalls(replayReps, 10, func() { ex.Exchange(f3s, f2s) }); c.Rank() == 0 {
				sec = s
			}
		})
		rp.metrics["topo.exchange_us"] = sec * 1e6
	}
}

// replayCheckpoint times the checkpoint layer on a gathered snapshot of
// finals: gather, encode, a durable DirStore.Put (fsync included) and read.
func replayCheckpoint(m map[string]float64, g *grid.Grid, finals []*state.State, dir string) error {
	var gl *checkpoint.Global
	m["checkpoint.gather_ms"] = 1e3 * timeCalls(replayReps, 1, func() { gl = checkpoint.Gather(g, finals) })
	var buf bytes.Buffer
	var err error
	m["checkpoint.encode_ms"] = 1e3 * timeCalls(replayReps, 1, func() {
		buf.Reset()
		if e := gl.Write(&buf); e != nil {
			err = e
		}
	})
	m["checkpoint.bytes"] = float64(buf.Len())
	m["checkpoint.read_ms"] = 1e3 * timeCalls(replayReps, 1, func() {
		if _, e := checkpoint.Read(bytes.NewReader(buf.Bytes())); e != nil {
			err = e
		}
	})
	store, e := checkpoint.NewDirStore(filepath.Join(dir, "replay-store"))
	if e != nil {
		return e
	}
	step := 0
	m["checkpoint.put_ms"] = 1e3 * timeCalls(replayReps, 1, func() {
		step++
		if e := store.Put("replay", step, gl); e != nil {
			err = e
		}
	})
	return err
}

// replayPlanner times the planner the way the job service configures it: a
// cold plan into an empty cache directory, and the cached plan after it.
func replayPlanner(m map[string]float64, g *grid.Grid, cfg dycore.Config, procs int, dir string) error {
	const coldReps = 5 // a cold plan pilots candidates; 30 of them would outlast the workload
	prof := tune.ProfileFromModel(comm.TianheLike())
	var err error
	var pl *tune.Planner
	plan := func() {
		if _, e := pl.Plan(g, procs, cfg); e != nil {
			err = e
		}
	}
	cold := make([]float64, coldReps)
	for i := range cold {
		pl = &tune.Planner{Profile: prof, TopK: 2, PilotSteps: 1,
			Cache: tune.NewCache(filepath.Join(dir, "replay-plans", strconv.Itoa(i)))}
		t0 := time.Now()
		plan()
		cold[i] = time.Since(t0).Seconds()
	}
	m["tune.plan_cold_ms"] = 1e3 * median(cold)
	m["tune.plan_cached_ms"] = 1e3 * timeCalls(replayReps, 1, plan)
	m["tune.candidates"] = float64(len(tune.Candidates(g, procs, cfg, prof, pl.Search)))
	return err
}
