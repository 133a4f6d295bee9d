package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cadycore/internal/dycore"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
	"cadycore/internal/testutil"
)

// Tiny cases: the same code paths as the real workloads in well under a
// second each.
var (
	tinySerial  = dycoreCase{name: "tiny_serial", alg: dycore.AlgBaselineYZ, pa: 1, pb: 1, nx: 24, ny: 12, nz: 6, steps: 8}
	tinyPar     = dycoreCase{name: "tiny_par", alg: dycore.AlgCommAvoid, pa: 2, pb: 2, nx: 24, ny: 12, nz: 6, steps: 8}
	tinyService = serviceCase{name: "tiny_service", jobs: 8, nx: 24, ny: 12, nz: 6}
	tinyFleet   = serviceCase{name: "tiny_fleet", fleet: true, jobs: 8, nx: 24, ny: 12, nz: 6}
)

// TestMain lets the test binary stand in for the benchmark when startBallast
// re-executes it as a ballast child.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == ballastArg {
		os.Exit(ballastChild())
	}
	os.Exit(m.Run())
}

// childProcesses counts the live processes whose parent is this one.
func childProcesses(t *testing.T) int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range stats {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // gone in the meantime
		}
		// pid (comm) state ppid ...; comm may hold spaces, so cut at the last ')'.
		fields := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(fields) > 1 && fields[0] != "Z" && fields[1] == strconv.Itoa(os.Getpid()) {
			n++
		}
	}
	return n
}

func TestBallastStopsItsChildren(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	before := childProcesses(t)
	stop := startBallast(io.Discard)
	if got := childProcesses(t) - before; got != runtime.NumCPU() {
		t.Errorf("%d ballast children running, want one per CPU (%d)", got, runtime.NumCPU())
	}
	stop()
	if got := childProcesses(t) - before; got != 0 {
		t.Errorf("%d ballast children left after stop", got)
	}
}

func mustDeclaration(t *testing.T) *declaration {
	t.Helper()
	d, err := loadDeclaration(declFile)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func names(ms []metricDecl) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	g := grid.New(24, 12, 6)
	blk := field.Block{Nx: 24, Ny: 12, Nz: 6, I1: 24, J1: 12, K1: 6, Hx: 1, Hy: 1, Hz: 1}
	initial := func(seed int64) *state.State {
		st := state.New(blk)
		perturbedInit(seed)(g, st)
		return st
	}
	a, b, c := initial(5), initial(5), initial(6)
	if !reflect.DeepEqual(a.Phi.Data, b.Phi.Data) || !reflect.DeepEqual(a.U.Data, b.U.Data) {
		t.Error("same seed gave different initial states")
	}
	if reflect.DeepEqual(a.Phi.Data, c.Phi.Data) {
		t.Error("different seeds gave the same initial state")
	}
	if !reflect.DeepEqual(a.Psa.Data, c.Psa.Data) {
		t.Error("the perturbation touched p'_sa")
	}

	ja, jb, jc := jobMix(5, 20, 24, 12, 6), jobMix(5, 20, 24, 12, 6), jobMix(6, 20, 24, 12, 6)
	if !reflect.DeepEqual(ja, jb) {
		t.Error("same seed gave different job mixes")
	}
	if reflect.DeepEqual(ja, jc) {
		t.Error("different seeds gave the same job mix")
	}
	var count [numClasses]int
	for _, j := range ja {
		count[j.class]++
	}
	if count != [numClasses]int{12, 4, 4} {
		t.Errorf("class counts %v over two periods, want 12:4:4", count)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct{ n, pct int }{{400, 95}, {200, 95}, {199, 94}, {118, 91}, {21, 52}, {20, 50}, {3, 50}} {
		xs := ramp(tc.n)
		pct, v := tail(xs)
		if pct != tc.pct {
			t.Errorf("n=%d: tail reports p%d, want p%d", tc.n, pct, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if pct > 50 && beyond < tailBeyond {
			t.Errorf("n=%d: p%d leaves %d samples beyond it, want ≥ %d", tc.n, pct, beyond, tailBeyond)
		}
	}
	if pct, v := tail(nil); pct != 0 || v != 0 {
		t.Errorf("tail(nil) = p%d %v", pct, v)
	}
}

func TestTrimmedMeanMovesSmoothlyBetweenTwoGroups(t *testing.T) {
	split := func(low int) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = 200
			if i < low {
				xs[i] = 100
			}
		}
		return xs
	}
	a, b := split(49), split(51)
	if d := median(a) - median(b); d != 100 {
		t.Fatalf("medians differ by %v, want the full gap of 100", d)
	}
	if d := trimmedMean(a) - trimmedMean(b); d != 2.5 {
		t.Errorf("trimmed means %v and %v differ by %v, want 2.5", trimmedMean(a), trimmedMean(b), d)
	}
	window := make([]float64, quietWindow)
	for i := range window {
		window[i] = 10
	}
	window[3], window[11] = 1000, 0.1 // a straggler, a refused-and-retried quickie
	if v := trimmedMean(window); v != 10 {
		t.Errorf("trimmed mean of a window ignores neither tail: %v, want 10", v)
	}
	if v := trimmedMean(nil); v != 0 {
		t.Errorf("trimmedMean(nil) = %v", v)
	}
}

func TestEndToEndTakesTheQuietestWindow(t *testing.T) {
	// 100 units of 10 ms and 1 ms of CPU each, except a disturbed stretch in
	// the middle where they take 30 ms; every fifth unit stalls for 10 ms more,
	// disturbed or not.
	t0 := time.Unix(0, 0)
	s := &series{start: t0}
	now, cpu := t0, 0.0
	for i := 0; i < 100; i++ {
		lat := 10.0
		if i >= 30 && i < 70 {
			lat = 30
		}
		if i%5 == 0 {
			lat += 10
		}
		now, cpu = now.Add(time.Duration(lat*float64(time.Millisecond))), cpu+0.001
		s.add(lat, now, cpu)
	}
	m := map[string]float64{}
	s.endToEnd(m)
	// A window of 20 units holds four stalls wherever it starts: 240 ms, and
	// after trimming two units at either end, 14 units of 10 ms and 2 of 20.
	if m["unit_ms_mid"] != 11.25 {
		t.Errorf("unit_ms_mid %v, want the 11.25 ms of an undisturbed window", m["unit_ms_mid"])
	}
	if got, want := m["units_per_s"], 20/0.240; got < want*0.999 || got > want*1.001 {
		t.Errorf("units_per_s %v, want %v: the recurring stall must not be hidden", got, want)
	}
	if got := m["cpu_ms_per_unit"]; got < 0.999 || got > 1.001 {
		t.Errorf("cpu_ms_per_unit %v, want 1", got)
	}

	// Overlapping units (two clients) are windowed in the order they ended: a
	// straggler recorded early does not shorten the windows after it.
	o := &series{start: t0}
	for i := 0; i < 40; i++ {
		end := t0.Add(time.Duration(i+1) * 10 * time.Millisecond)
		if i == 0 {
			end = t0.Add(305 * time.Millisecond) // ends after 29 later units
		}
		o.add(10, end, float64(i))
	}
	m = map[string]float64{}
	o.endToEnd(m)
	if got, want := m["units_per_s"], 100.0; got < want*0.999 || got > want*1.06 {
		t.Errorf("units_per_s %v with a straggler, want about %v", got, want)
	}
}

func TestSelfTimeExcludesWhatChildrenCover(t *testing.T) {
	tr := newTracer(1, 8)
	l := tr.lanes[0]
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	l.add("parent", -1, 0, at(0), at(100))
	l.add("a", 0, 0, at(0), at(40))
	l.add("b", 0, 0, at(30), at(60))  // overlaps a: the union is 60 ms
	l.add("c", 0, 0, at(90), at(120)) // clipped to the parent: 10 ms
	total, self, coverage := tr.selfTimes()
	if total["parent"] != 100*time.Millisecond || self["parent"] != 30*time.Millisecond {
		t.Errorf("parent total %v self %v, want 100ms and 30ms", total["parent"], self["parent"])
	}
	if coverage != 0.7 {
		t.Errorf("coverage %v, want 0.7", coverage)
	}
}

func TestDeclarationIsWellFormed(t *testing.T) {
	d := mustDeclaration(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var declared []string
	for _, w := range d.Workloads {
		check("workload", w.Name)
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var have []string
	for _, w := range workloads(d.RunSeconds) {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(have, declared) {
		t.Errorf("the program runs %v, BENCHMARK.json declares %v", have, declared)
	}
	setup := false
	for _, m := range d.EndToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(append([]metricDecl(nil), d.EndToEnd...), d.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range d.PerLayer {
		check("per-layer metric", m.Name)
	}
	if len(d.PerLayer) > 128 || len(d.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
}

// tinyRun runs both passes of a tiny case twice with the same seed and
// returns the first pass's metric maps; it fails the test on any failed
// operation or on an exact metric that did not repeat.
func tinyRun(t *testing.T, run func(traced bool, tracePath string) outcome) (e2e, layer map[string]float64) {
	t.Helper()
	d := mustDeclaration(t)
	unit := map[string]string{}
	for _, m := range d.PerLayer {
		unit[m.Name] = m.Unit
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	first := run(false, "")
	a, b := run(true, tracePath), run(true, tracePath)
	for _, o := range []outcome{first, a, b} {
		if o.failed != 0 || o.attempted == 0 {
			t.Fatalf("attempted %d failed %d: %v", o.attempted, o.failed, o.failures)
		}
	}
	for name, v := range a.metrics {
		if exactUnits[unit[name]] && b.metrics[name] != v {
			t.Errorf("%s: %v then %v with the same seed, want identical", name, v, b.metrics[name])
		}
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("no trace report at %s: %v", tracePath, err)
	}
	if c := a.metrics["bench.span_coverage"]; c < 0.95 {
		t.Errorf("children cover %.3f of their parent spans, want ≥ 0.95", c)
	}
	return first.metrics, a.metrics
}

func TestEmittedMetricsEqualDeclared(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	d := mustDeclaration(t)
	tmp := filepath.Join(t.TempDir(), "tmp")
	dy := func(c dycoreCase) func(bool, string) outcome {
		return func(traced bool, p string) outcome { return runDycore(c, 11, traced, p, map[string]any{}) }
	}
	sv := func(c serviceCase) func(bool, string) outcome {
		return func(traced bool, p string) outcome { return runService(c, 11, traced, tmp, p, map[string]any{}) }
	}
	emitted := map[string]float64{"bench.noise_probe_ratio": 1} // added by runOnce around every run
	layers := map[string]map[string]float64{}
	for name, run := range map[string]func(bool, string) outcome{
		"serial": dy(tinySerial), "par": dy(tinyPar), "service": sv(tinyService), "fleet": sv(tinyFleet),
	} {
		e2e, layer := tinyRun(t, run)
		if got, want := keys(e2e), names(d.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s emits end-to-end metrics %v, BENCHMARK.json declares %v", name, got, want)
		}
		for k, v := range e2e {
			if !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, v)
			}
		}
		layers[name] = layer
		for k := range layer {
			emitted[k] = 1
		}
	}
	if got, want := keys(emitted), names(d.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("the workloads together emit per-layer metrics\n%v\nBENCHMARK.json declares\n%v", got, want)
	}

	// The predictions the layer table rests on.
	if v := layers["serial"]["comm.msgs_per_step"]; v != 0 {
		t.Errorf("serial run sends %v messages per step, want 0", v)
	}
	if v := layers["par"]["comm.msgs_per_step"]; !(v > 0) {
		t.Errorf("parallel run sends %v messages per step, want > 0", v)
	}
	for k := range layers["service"] {
		if strings.HasPrefix(k, "fleet.") {
			t.Errorf("service workload without a fleet emits %s", k)
		}
	}
	if v := layers["fleet"]["fleet.dispatches_total"]; !(v > 0) {
		t.Errorf("fleet workload dispatched %v jobs, want > 0", v)
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Errorf("service workloads left %d entries in their temp dir (err %v)", len(ents), err)
	}
}
