package checkpoint

import (
	"bytes"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// TestCrossDecompositionRoundTrip pins the decomposition-independence the
// package doc claims: a snapshot gathered from one p_y × p_z process grid,
// serialized, read back and scattered under a different grid — including a
// different algorithm family (X-Y decomposition, comm-avoiding deep halos)
// — gathers back bitwise identical. The restart runs zero steps, so only
// the gather/scatter pair over the global index space is exercised.
func TestCrossDecompositionRoundTrip(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2

	// Produce a physically evolved snapshot under a 2x2 Y-Z grid.
	src := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg}
	res := dycore.Run(src, g, comm.TianheLike(), heldsuarez.InitialState, 2)
	snap := Gather(g, res.Finals)

	// Serialize and reload, so the cross-decomposition path includes the
	// on-disk format, not just the in-memory arrays.
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !snap.Equal(loaded) {
		t.Fatalf("serialization round-trip not bitwise identical")
	}

	targets := []dycore.Setup{
		{Alg: dycore.AlgBaselineYZ, PA: 4, PB: 1, Cfg: cfg}, // different p_y x p_z split
		{Alg: dycore.AlgBaselineYZ, PA: 1, PB: 4, Cfg: cfg}, // all-z split
		{Alg: dycore.AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg}, // same grid (control)
		{Alg: dycore.AlgBaselineXY, PA: 2, PB: 2, Cfg: cfg}, // X-Y decomposition
		{Alg: dycore.AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg},  // deep-halo blocks
	}
	for _, set := range targets {
		rt := dycore.Run(set, g, comm.TianheLike(), loaded.InitFunc(), 0)
		back := Gather(g, rt.Finals)
		if set.Alg == dycore.AlgCommAvoid {
			// The comm-avoiding writer adds its carried Ĉ (bootstrapped from
			// ξ here, owing no smoothing); ξ itself must come back untouched.
			if back.PWI == nil || back.PendingSmooth {
				t.Errorf("%s: Ĉ carried %v, pending smoothing %v; want true, false", set.Alg, back.PWI != nil, back.PendingSmooth)
			}
			back.PWI, back.DBar = nil, nil
		}
		if !snap.Equal(back) {
			t.Errorf("%s %dx%d: restart round-trip not bitwise identical", set.Alg, set.PA, set.PB)
		}
	}
}

// TestScatterMeshMismatch checks the guard against restarting on a
// different mesh.
func TestScatterMeshMismatch(t *testing.T) {
	g := grid.New(16, 8, 4)
	snap := randomGlobal(g, 7)
	other := grid.New(16, 8, 6)
	st := state.New(BlockOf(other))
	if err := snap.Scatter(st); err == nil {
		t.Fatalf("Scatter accepted a mismatched mesh")
	}
}
