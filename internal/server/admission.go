package server

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrQuotaExceeded: the job's tenant already has its quota of jobs in flight
// (HTTP 429 + Retry-After, like a full queue).
var ErrQuotaExceeded = errors.New("server: tenant quota exceeded")

// classWeight is the smooth weighted-round-robin weight of each priority
// class (Config.Classes; a tenant without a class is "normal").
var classWeight = map[string]int{"high": 4, "normal": 2, "low": 1}

// tenantQ is one tenant's admission state: its FIFO of queued jobs, its
// in-flight count against the quota, and its credit in the weighted-fair
// order the workers take jobs in.
type tenantQ struct {
	name   string
	weight int
	quota  int // in-flight bound; 0 = none

	// Guarded by Server.mu.
	cur                int // smooth WRR credit
	fifo               []*Job
	admitted, rejected int64

	// inflight counts the tenant's queued, running and retrying jobs. It is
	// charged under Server.mu and released by finishLocked, which holds only
	// the job's lock.
	inflight atomic.Int64
}

// CheckTenancy rejects the quotas and classes New would otherwise misread;
// New calls it, and cmd/cadyserved reports it as a usage error.
func (c Config) CheckTenancy() error {
	if c.DefaultQuota < 0 {
		return fmt.Errorf("server: default quota %d, want >= 0", c.DefaultQuota)
	}
	//cadyvet:unordered validation only; the first error found is reported
	for t, q := range c.Quotas {
		if q < 1 {
			return fmt.Errorf("server: quota %d for tenant %s, want >= 1", q, t)
		}
	}
	//cadyvet:unordered validation only; the first error found is reported
	for t, cl := range c.Classes {
		if classWeight[cl] == 0 {
			return fmt.Errorf("server: class %q for tenant %s, want high, normal or low", cl, t)
		}
	}
	return nil
}

// tenantLocked returns (creating on first use) the admission state of a
// job's tenant; the anonymous tenant is "default".
//
//cadyvet:locked s.mu
func (s *Server) tenantLocked(name string) *tenantQ {
	if name == "" {
		name = "default"
	}
	tq := s.tenants[name]
	if tq == nil {
		class := s.cfg.Classes[name]
		if class == "" {
			class = "normal"
		}
		quota := s.cfg.DefaultQuota
		if q, ok := s.cfg.Quotas[name]; ok {
			quota = q
		}
		tq = &tenantQ{name: name, weight: classWeight[class], quota: quota}
		s.tenants[name] = tq
	}
	return tq
}

// admitLocked is the one admission check; Submit, Resume and the restart
// requeue all pass it. It admits js, the jobs of one tenant (one job, or an
// ensemble's members), all or none. A full queue rejects with ErrQueueFull
// and a tenant at its quota with ErrQuotaExceeded — except for a restart,
// whose job still holds its in-flight slot. Admitted jobs join the tail of
// their tenant's FIFO and wake a worker each.
//
//cadyvet:locked s.mu
func (s *Server) admitLocked(restart bool, js ...*Job) error {
	tq, n := js[0].tq, len(js)
	var err error
	switch {
	case s.queued+n > s.cfg.QueueCap:
		err = ErrQueueFull
	case !restart && tq.quota > 0 && tq.inflight.Load()+int64(n) > int64(tq.quota):
		err = fmt.Errorf("%w: tenant %s has %d jobs in flight, quota %d",
			ErrQuotaExceeded, tq.name, tq.inflight.Load(), tq.quota)
	}
	if err != nil {
		if !restart {
			tq.rejected++
			s.met.rejected.Add(1)
		}
		return err
	}
	for _, j := range js {
		if !restart {
			tq.inflight.Add(1)
			tq.admitted++
		}
		tq.fifo = append(tq.fifo, j)
		s.queued++
		s.wake.Signal()
	}
	return nil
}

// popLocked takes the next job by smooth weighted round robin over the
// tenants with queued jobs: each gains its weight in credit, the richest
// (ties by name) is served and pays back the total weight. Under contention
// each tenant's share of starts converges to weight/Σweights, so a greedy
// low-class tenant cannot starve a high-class one; one tenant alone is plain
// FIFO. Returns nil when nothing is queued.
//
//cadyvet:locked s.mu
func (s *Server) popLocked() *Job {
	var best *tenantQ
	total := 0
	//cadyvet:unordered credit updates commute; the pick is a max over (cur, name)
	for _, tq := range s.tenants {
		if len(tq.fifo) == 0 {
			continue
		}
		tq.cur += tq.weight
		total += tq.weight
		if best == nil || tq.cur > best.cur || tq.cur == best.cur && tq.name < best.name {
			best = tq
		}
	}
	if best == nil {
		return nil
	}
	best.cur -= total
	j := best.fifo[0]
	best.fifo[0] = nil
	best.fifo = best.fifo[1:]
	s.queued--
	return j
}

// dropLocked removes a cancelled job from its tenant's FIFO (a no-op when a
// worker already took it).
//
//cadyvet:locked s.mu
func (s *Server) dropLocked(j *Job) {
	for i, q := range j.tq.fifo {
		if q == j {
			j.tq.fifo = append(j.tq.fifo[:i], j.tq.fifo[i+1:]...)
			s.queued--
			return
		}
	}
}
