package server

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// An ensemble ("kind": "ensemble") is Members perturbed copies of one run:
// member m is the run job <id>-mNN, seeded memberSeed(perturb_seed, m). The
// ensemble itself never queues, holds no quota and keeps no record: its
// status is derived from its members' records whenever it is read, and
// cancel and resume act on its members.

const (
	minMembers = 2
	maxMembers = 64
)

// normalizeEnsemble fills an ensemble's defaults and checks its base run by
// the run rules.
func (sp *JobSpec) normalizeEnsemble() error {
	if sp.Members < minMembers || sp.Members > maxMembers {
		return fmt.Errorf("members = %d outside [%d, %d]", sp.Members, minMembers, maxMembers)
	}
	sp.PerturbSeed = cmp.Or(sp.PerturbSeed, 1)
	sp.PerturbAmp = cmp.Or(sp.PerturbAmp, 1e-4)
	base := sp.member(0)
	if err := base.Normalize(); err != nil {
		return err
	}
	base.Kind, base.Members, base.PerturbSeed, base.SharedKey = "ensemble", sp.Members, sp.PerturbSeed, sp.SharedKey
	*sp = base
	return nil
}

// member is the run spec of member m of a normalized ensemble: the base run
// with the member's perturbation seed and, when the ensemble has a
// shared_key, the member's own key under it.
func (sp JobSpec) member(m int) JobSpec {
	r := sp
	r.Kind, r.Members = "run", 0
	r.PerturbSeed = memberSeed(sp.PerturbSeed, m)
	if sp.SharedKey != "" {
		r.SharedKey = memberID(sp.SharedKey, m)
	}
	return r
}

// memberID names member m of the ensemble id (its job ID or shared key).
func memberID(id string, m int) string { return fmt.Sprintf("%s-m%02d", id, m) }

// memberSeed derives member m's perturbation seed from the ensemble seed
// (golden-ratio mix, distinct for every (seed, m)).
func memberSeed(seed int64, m int) int64 {
	return int64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(m) + 1)
}

// ensembleStatus derives an ensemble's status from its members' records: it
// runs until every member is terminal, then reads failed, cancelled,
// interrupted or completed, the first that any member is; its steps are
// summed over the members, and its diagnostics are each member diagnostic's
// <name>.min, <name>.max and <name>.mean over the completed members.
func (j *Job) ensembleStatus() JobStatus {
	j.mu.Lock()
	submitted := j.submitted
	j.mu.Unlock()
	st := JobStatus{ID: j.ID, Kind: j.Spec.Kind, SubmittedAt: submitted.UTC().Format(time.RFC3339Nano), Spec: j.Spec}
	states := map[JState]int{}
	agg := map[string]*[4]float64{} // min, max, sum, count
	for _, m := range j.members {
		ms := m.Status()
		st.Members = append(st.Members, ms.ID)
		st.StepsDone += ms.StepsDone
		st.StepsWant += ms.StepsWant
		st.Resumable = st.Resumable || ms.Resumable
		states[ms.State]++
		if ms.State == JFailed && st.Error == "" {
			st.Error = fmt.Sprintf("member %s: %s", ms.ID, ms.Error)
		}
		if f := ms.FinishedAt; f != nil && (st.FinishedAt == nil || f.After(*st.FinishedAt)) {
			st.FinishedAt = f
		}
		if ms.State != JCompleted {
			continue
		}
		//cadyvet:unordered each name's min, max and sum take the members in member order
		for k, v := range ms.Diagnostics {
			a := agg[k]
			if a == nil {
				a = &[4]float64{math.Inf(1), math.Inf(-1)}
				agg[k] = a
			}
			a[0], a[1], a[2], a[3] = math.Min(a[0], v), math.Max(a[1], v), a[2]+v, a[3]+1
		}
	}
	if len(agg) > 0 {
		st.Diagnostics = make(map[string]float64, 3*len(agg))
	}
	//cadyvet:unordered each name's aggregate is finished on its own
	for k, a := range agg {
		st.Diagnostics[k+".min"], st.Diagnostics[k+".max"], st.Diagnostics[k+".mean"] = a[0], a[1], a[2]/a[3]
	}
	switch {
	case states[JCompleted]+states[JFailed]+states[JCancelled]+states[JInterrupted] < len(j.members):
		st.State, st.FinishedAt = JRunning, nil
	case states[JFailed] > 0:
		st.State = JFailed
	case states[JCancelled] > 0:
		st.State = JCancelled
	case states[JInterrupted] > 0:
		st.State = JInterrupted
	default:
		st.State = JCompleted
	}
	if st.StepsWant > 0 {
		st.Progress = float64(st.StepsDone) / float64(st.StepsWant)
	}
	return st
}

// perturbInit wraps an initializer with the ensemble-member perturbation:
// after base fills the owned region, every owned (i, j, k) point of U, V and
// Φ is scaled by 1 + amp·ε, with ε ∈ [-1, 1) drawn from a splitmix64-style
// hash of (seed, global linear index, component) — the same generator family
// the fault injector uses for its per-rank streams. Because ε depends only on
// global coordinates, every decomposition of the same (seed, amp) produces a
// bitwise-identical global initial state, and multiplicative noise preserves
// the exact zeros of the polar V rows. Psa is left untouched.
func perturbInit(base dycore.InitFunc, seed int64, amp float64) dycore.InitFunc {
	return func(g *grid.Grid, st *state.State) {
		base(g, st)
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					n := uint64((k*g.Ny+j)*g.Nx + i)
					st.U.Set(i, j, k, st.U.At(i, j, k)*(1+amp*unitNoise(seed, 3*n)))
					st.V.Set(i, j, k, st.V.At(i, j, k)*(1+amp*unitNoise(seed, 3*n+1)))
					st.Phi.Set(i, j, k, st.Phi.At(i, j, k)*(1+amp*unitNoise(seed, 3*n+2)))
				}
			}
		}
	}
}

// unitNoise maps (seed, counter) to a deterministic value in [-1, 1) through
// the splitmix64 finalizer (golden-ratio seeding like comm.NewFaults).
func unitNoise(seed int64, n uint64) float64 {
	z := (uint64(seed)+1)*0x9e3779b97f4a7c15 ^ (n+1)*0xd1342543de82ef95
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<52) - 1
}
