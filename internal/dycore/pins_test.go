package dycore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
	"cadycore/internal/testutil"
)

// pinsPath is the package's pin table: every recorded state hash, simulated
// clock and count, one row per pinned run, compared by testutil.Pin and
// rewritten by `go test ./internal/dycore -update`. CI's count gates read
// its "bench/…" rows.
var pinsPath = filepath.Join("testdata", "pins.json")

// flatHash is FNV-1a over the float bits of a flattened global state
// (FlattenState): the absolute pin of a final state.
func flatHash(flat []float64) uint64 {
	h := fnv.New64a()
	for _, v := range flat {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// runPins are the pinned figures of a run: the message, byte and collective
// totals and, on amd64, the final state's hash and the simulated clock (the
// critical-path time, the compute seconds summed over ranks — every rank's
// charges, not just the slowest's — and the hidden flight time). Charges are
// summed in program order, so those bits hold on amd64; an architecture that
// contracts a·b+c into FMA legitimately rounds differently. The fields named
// in suffixed get suffix appended, for a row that records two runs.
func runPins(g *grid.Grid, res RunResult, suffix string, suffixed ...string) map[string]any {
	a := res.Agg
	pins := map[string]any{"msgs": a.MsgsSent, "bytes": a.BytesSent, "collectives": a.Collectives}
	if runtime.GOARCH == "amd64" {
		comp := 0.0
		for _, c := range a.RankComp {
			comp += c
		}
		pins["hash"] = fmt.Sprintf("%#x", flatHash(FlattenState(g, res.Finals)))
		pins["sim_s"], pins["comp_s"], pins["hidden_s"] = a.SimTime, comp, a.TotalHiddenTime()
	}
	for _, f := range suffixed {
		if v, ok := pins[f]; ok {
			delete(pins, f)
			pins[f+suffix] = v
		}
	}
	return pins
}

// TestBenchmarkCountsPinned re-derives the integer per-step counts of the pin
// table's "bench/…" rows, which CI's count gates hold the benchmark's traced
// dycore workloads to (seed 7, -trace 1). It runs each workload's scheme and
// process grid on the benchmark's 96×48×12 mesh at M = 3 for 3 and for 2
// steps: the difference cancels the one-off bootstrap exchange and Ĉ
// evaluation, as the benchmark's own difference of two run lengths does.
// Neither the seed's perturbation nor Δt enters a count. The rows' one other
// field, dycore.sim_step_ms, is the benchmark's long-run difference of
// simulated clocks, whose float bits no short run reproduces: this test
// leaves it alone, and it is refreshed from a benchmark run (the verify notes
// give the command).
func TestBenchmarkCountsPinned(t *testing.T) {
	g := grid.New(96, 48, 12)
	cfg := testCfg(3)
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, _ int) { hs.Apply(g, st, cfg.Dt2) }
	counts := map[string]func(RunResult) int64{
		"comm.msgs_per_step":          func(r RunResult) int64 { return r.Agg.MsgsSent },
		"comm.bytes_per_step":         func(r RunResult) int64 { return r.Agg.BytesSent },
		"comm.collectives_per_step":   func(r RunResult) int64 { return r.Agg.Collectives },
		"dycore.halo_rounds_per_step": func(r RunResult) int64 { return r.Count.HaloExchanges },
		"filter.calls_per_step":       func(r RunResult) int64 { return r.Count.FilterCalls },
	}
	for _, w := range []struct {
		name   string
		alg    Algorithm
		pa, pb int
	}{
		{"serial_yz", AlgBaselineYZ, 1, 1},
		{"yz_p8", AlgBaselineYZ, 4, 2},
		{"ca_p8", AlgCommAvoid, 4, 2},
	} {
		set := Setup{Alg: w.alg, PA: w.pa, PB: w.pb, Cfg: cfg}
		short := RunWithHook(set, g, comm.TianheLike(), heldsuarez.InitialState, 2, hook)
		long := RunWithHook(set, g, comm.TianheLike(), heldsuarez.InitialState, 3, hook)
		got := map[string]any{}
		for name, count := range counts {
			got[name] = count(long) - count(short)
		}
		testutil.Pin(t, pinsPath, "bench/"+w.name, got)
	}
}
