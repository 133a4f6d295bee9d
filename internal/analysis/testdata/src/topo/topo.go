// Package topo is a fixture stand-in for the module's process topology and
// halo exchanger (matched by package and type name, like the comm fixture).
package topo

import "comm"

// Topology carries the rank's grid coordinates; Cx/Cy/Cz are rank-valued
// sources for the commsym taint analysis.
type Topology struct {
	Cx, Cy, Cz int
	World      *comm.Comm
}

// Pending is an in-flight halo exchange awaiting completion.
type Pending struct{ active bool }

func (p *Pending) Finish() { p.active = false }

// Exchanger issues halo exchanges.
type Exchanger struct{ pend Pending }

func (e *Exchanger) Begin(fs [][]float64) *Pending { return &e.pend }

func (e *Exchanger) Exchange(fs [][]float64) {
	e.Begin(fs).Finish()
}
