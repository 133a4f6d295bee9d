// Package halo wraps a collective behind a helper, for the transitive
// collective-bearing-call tests.
package halo

import "comm"

// Sync gathers one value from every rank, which synchronizes them like a
// barrier; callers inherit its collective nature via facts.
func Sync(c *comm.Comm) { c.Allgather(make([]float64, 1), make([]float64, c.Size())) }
