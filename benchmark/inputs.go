package main

import (
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/server"
	"cadycore/internal/state"
)

// Everything the program under test sees is generated here from the seed;
// the seed itself never reaches it.

// perturbAmp is the relative amplitude of the seeded perturbation of the
// Held–Suarez initial state, for the dycore workloads and for every job.
const perturbAmp = 1e-3

// splitmix is a splitmix64 stream: deterministic across Go releases, which
// math/rand's shuffling is not promised to be.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unitNoise maps (seed, counter) to a value in [-1, 1).
func unitNoise(seed int64, n uint64) float64 {
	s := splitmix(uint64(seed)*0xd1342543de82ef95 + n)
	return float64(s.next()>>11)/(1<<52) - 1
}

// perturbedInit is heldsuarez.InitialState with U, V and Φ scaled pointwise by
// 1 + perturbAmp·ε, ε drawn from (seed, global index, component) — the rule of
// the job field perturb_amp: layout-independent, exact zeros stay zero, p'_sa
// untouched so surface pressure and dry mass stay those of the base state.
func perturbedInit(seed int64) dycore.InitFunc {
	return func(g *grid.Grid, st *state.State) {
		heldsuarez.InitialState(g, st)
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					n := 3 * uint64((k*g.Ny+j)*g.Nx+i)
					st.U.Set(i, j, k, st.U.At(i, j, k)*(1+perturbAmp*unitNoise(seed, n)))
					st.V.Set(i, j, k, st.V.At(i, j, k)*(1+perturbAmp*unitNoise(seed, n+1)))
					st.Phi.Set(i, j, k, st.Phi.At(i, j, k)*(1+perturbAmp*unitNoise(seed, n+2)))
				}
			}
		}
	}
}

// Job classes of the service mix, in the order of classNames.
const (
	classShort = iota
	classAuto
	classCkpt
	numClasses
)

var classNames = [numClasses]string{"short", "auto", "ckpt"}

// mixPeriod is one period of the traffic mix: 6 short : 2 auto : 2 ckpt.
var mixPeriod = [...]int{
	classShort, classShort, classShort, classShort, classShort, classShort,
	classAuto, classAuto, classCkpt, classCkpt,
}

// job is one generated submission.
type job struct {
	class int
	spec  server.JobSpec
}

// classSpec is the job of a class on the nx×ny×nz job mesh (m = 2):
//
//	short  explicit yz 2×2, 4 steps — the submit→run→persist path alone;
//	auto   layout "auto" on 4 ranks, 4 steps — adds the planner and its cache;
//	ckpt   explicit ca 2×2, 8 steps, a checkpoint every 2 — adds gather,
//	       encode and fsync, and is the latency tail.
func classSpec(class, nx, ny, nz int) server.JobSpec {
	sp := server.JobSpec{Nx: nx, Ny: ny, Nz: nz, M: 2, Steps: 4, PerturbAmp: perturbAmp}
	switch class {
	case classShort:
		sp.Alg, sp.PA, sp.PB = "yz", 2, 2
	case classAuto:
		sp.Layout, sp.Procs = "auto", 4
	case classCkpt:
		sp.Alg, sp.PA, sp.PB = "ca", 2, 2
		sp.Steps, sp.CheckpointEvery = 8, 2
	}
	return sp
}

// jobMix generates n jobs: one seeded shuffle of mixPeriod, repeated, each
// job with its own perturb_seed.
func jobMix(seed int64, n, nx, ny, nz int) []job {
	rng := splitmix(uint64(seed))
	order := mixPeriod
	for i := len(order) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	jobs := make([]job, n)
	for i := range jobs {
		c := order[i%len(order)]
		sp := classSpec(c, nx, ny, nz)
		sp.PerturbSeed = int64(rng.next() >> 1)
		jobs[i] = job{class: c, spec: sp}
	}
	return jobs
}
