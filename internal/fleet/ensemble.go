package fleet

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cadycore/internal/server"
)

// EnsembleSpec fans one run JobSpec into Members perturbed copies. Member m
// runs the base job with a deterministic initial-state perturbation of
// relative amplitude PerturbAmp seeded by (Seed, m), so the same spec always
// produces the same member set (and member 0 of one ensemble equals member 0
// of an identically-seeded resubmission, bitwise, for deterministic
// integrators).
type EnsembleSpec struct {
	Job     server.JobSpec `json:"job"`
	Members int            `json:"members"`
	// Seed seeds the member perturbation streams (default 1).
	Seed int64 `json:"seed,omitempty"`
	// PerturbAmp is the relative perturbation amplitude (default 1e-4).
	PerturbAmp float64 `json:"perturb_amp,omitempty"`
}

const (
	minMembers = 2
	maxMembers = 64
)

// normalize validates the fan-out parameters and the base job.
func (es *EnsembleSpec) normalize() error {
	if es.Members < minMembers || es.Members > maxMembers {
		return fmt.Errorf("fleet: members = %d outside [%d, %d]", es.Members, minMembers, maxMembers)
	}
	if es.Seed == 0 {
		es.Seed = 1
	}
	if es.PerturbAmp == 0 {
		es.PerturbAmp = 1e-4
	}
	if es.PerturbAmp < 0 || es.PerturbAmp > 0.1 {
		return fmt.Errorf("fleet: perturb_amp = %g outside (0, 0.1]", es.PerturbAmp)
	}
	if es.Job.SharedKey != "" || es.Job.PerturbAmp != 0 || es.Job.PerturbSeed != 0 {
		return errors.New("fleet: ensemble member shared_key/perturb_* are coordinator-assigned; leave them empty")
	}
	if err := es.Job.Normalize(); err != nil {
		return err
	}
	if es.Job.Kind != "run" {
		return fmt.Errorf("fleet: ensembles fan out run jobs, not %q", es.Job.Kind)
	}
	return nil
}

// memberSeed derives member m's perturbation seed from the ensemble seed
// (golden-ratio mix, distinct for every (seed, m)).
func memberSeed(seed int64, m int) int64 {
	return int64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(m) + 1)
}

// SubmitEnsemble places one ensemble whole or not at all: the base job is
// validated once and each member becomes a fleet job with its own
// shared-store key "<ensemble>-mNN" and derived perturbation seed. When a
// member finds no backend, the members already placed are cancelled and
// the rejection passes through.
func (c *Coordinator) SubmitEnsemble(es EnsembleSpec, tenant string) (*ensemble, error) {
	if tenant == "" {
		tenant = es.Job.Tenant
	}
	if tenant == "" {
		tenant = "default"
	}
	es.Job.Tenant = tenant
	if err := es.normalize(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.ids.ESeq++
	e := &ensemble{ID: fmt.Sprintf("e-%06d", c.ids.ESeq), Tenant: tenant, Spec: es, Submitted: wallNow()}
	ids := &c.ids
	c.mu.Unlock()
	c.persist(ids) // the ID is durable before a backend sees it
	var placed []*job
	var recs []stored // the members, then the ensemble: it lands behind them
	for m := 0; m < es.Members; m++ {
		j := &job{
			ID:        fmt.Sprintf("%s-m%02d", e.ID, m),
			Tenant:    tenant,
			Spec:      es.Job,
			Ensemble:  e.ID,
			Member:    m,
			State:     server.JRunning,
			Submitted: e.Submitted,
		}
		j.Spec.PerturbSeed = memberSeed(es.Seed, m)
		j.Spec.PerturbAmp = es.PerturbAmp
		j.Spec.SharedKey = j.ID
		url, st, err := c.place(j.ID, j.Spec)
		if err != nil {
			for _, p := range placed {
				c.unplace(p.Backend, p.BackendID)
			}
			return nil, err
		}
		j.Backend, j.BackendID, j.remote = url, st.ID, st
		placed, recs = append(placed, j), append(recs, j)
		e.Members = append(e.Members, j.ID)
	}
	c.mu.Lock()
	c.registerLocked(placed...)
	c.ensembles[e.ID] = e
	c.eorder = append(c.eorder, e.ID)
	c.met.ensembles++
	c.mu.Unlock()
	c.persist(append(recs, e)...)
	return e, nil
}

// DiagAggregate is the member min/max/mean of one diagnostic.
type DiagAggregate struct {
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count int     `json:"count"`
}

// EnsembleStatus is the JSON view of an ensemble.
type EnsembleStatus struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	Members   int    `json:"members"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`

	MemberJobs []JobInfo `json:"member_jobs"`
	// Diagnostics aggregates the completed members' diagnostic outputs
	// (min/max/mean over members) — the ensemble-spread summary.
	Diagnostics map[string]DiagAggregate `json:"diagnostics,omitempty"`

	Seed        int64   `json:"seed"`
	PerturbAmp  float64 `json:"perturb_amp"`
	SubmittedAt string  `json:"submitted_at"`
}

// ensembleStatusLocked assembles the status view. Caller holds c.mu.
//
//cadyvet:locked c.mu
func (c *Coordinator) ensembleStatusLocked(e *ensemble) EnsembleStatus {
	st := EnsembleStatus{
		ID: e.ID, Tenant: e.Tenant,
		Members:     len(e.Members),
		Seed:        e.Spec.Seed,
		PerturbAmp:  e.Spec.PerturbAmp,
		SubmittedAt: e.Submitted.UTC().Format(time.RFC3339Nano),
	}
	for _, id := range e.Members {
		j := c.jobs[id]
		st.MemberJobs = append(st.MemberJobs, c.jobInfoLocked(j))
		switch j.State {
		case server.JCompleted:
			st.Completed++
			if j.Diagnostics == nil {
				continue
			}
			if st.Diagnostics == nil {
				st.Diagnostics = make(map[string]DiagAggregate)
			}
			//cadyvet:unordered element-wise accumulation per key; members are summed in member order
			for k, v := range j.Diagnostics {
				a, ok := st.Diagnostics[k]
				if !ok {
					a = DiagAggregate{Min: math.Inf(1), Max: math.Inf(-1)}
				}
				a.Min, a.Max, a.Mean, a.Count = math.Min(a.Min, v), math.Max(a.Max, v), a.Mean+v, a.Count+1
				st.Diagnostics[k] = a
			}
		case server.JFailed:
			st.Failed++
		case server.JCancelled:
			st.Cancelled++
		}
	}
	//cadyvet:unordered each key's mean is finished on its own
	for k, a := range st.Diagnostics {
		a.Mean /= float64(a.Count)
		st.Diagnostics[k] = a
	}
	switch {
	case st.Completed+st.Failed+st.Cancelled < len(e.Members):
		st.State = "running"
	case st.Failed > 0:
		st.State = "failed"
	case st.Cancelled > 0:
		st.State = "cancelled"
	default:
		st.State = "completed"
	}
	return st
}
