// Package tune is the cost-model-driven autotuner. Its machine profile is the
// simulated network model that pilot runs charge (LogP α, β, o and the
// compute rate). With it the planner evaluates the paper's §5.3 W/S
// expressions — per-row compute at the dycore.SimCosts weights plus the
// latitude-weighted filter term — over the uniform-partition candidate space
// scheme ∈ {CA, YZ} × every py×pz factorization × CA stage depth, refines
// the top analytic candidates with short pilot runs, and memoizes the chosen
// plan in an on-disk cache. The rebalancing controller (internal/balance)
// prices its mid-run re-plans with the same pilot, under measured per-rank
// slowdowns.
//
// The planner is deterministic: a given (mesh, procs, config, profile)
// always yields the same plan. Pilot runs measure the simulated LogP clock,
// not wall time, so refinement is reproducible too.
package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cadycore/internal/comm"
)

// Profile is the machine the planner prices and pilots: the LogP constants
// and compute rate of one network model.
type Profile struct {
	// Alpha is the effective latency of one synchronization round
	// (network latency plus both software overheads), seconds.
	Alpha float64 `json:"alpha"`
	// Beta is the per-byte transfer time, seconds.
	Beta float64 `json:"beta"`
	// Overhead is the software send overhead (the LogP "o"), seconds.
	Overhead float64 `json:"overhead"`
	// ComputeRate is the simulated-clock compute rate (point-updates per
	// second); the analytic compute term and the pilot runs both use it.
	ComputeRate float64 `json:"compute_rate"`
}

// NetModel reconstructs the communication model pilot runs simulate under.
func (p Profile) NetModel() comm.NetModel {
	return comm.NetModel{
		Latency:      p.Alpha - 2*p.Overhead,
		ByteTime:     p.Beta,
		SendOverhead: p.Overhead,
		ComputeRate:  p.ComputeRate,
	}
}

// Hash returns a short stable digest of the profile; it keys the plan cache
// so plans made for another machine are never served.
func (p Profile) Hash() string {
	data, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("tune: profile hash: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

// ProfileFromModel is the profile of a network model.
func ProfileFromModel(m comm.NetModel) Profile {
	return Profile{
		Alpha:       m.Latency + 2*m.SendOverhead,
		Beta:        m.ByteTime,
		Overhead:    m.SendOverhead,
		ComputeRate: m.ComputeRate,
	}
}

// DefaultProfile is ProfileFromModel of the TianheLike machine.
func DefaultProfile() Profile {
	return ProfileFromModel(comm.TianheLike())
}
