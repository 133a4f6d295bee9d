// Command benchmark is the repository's benchmark: five named workloads, the
// end-to-end metrics a user of the system waits on, and — in a separate traced
// pass — per-layer metrics recorded from this package's own files around the
// calls into each layer. BENCHMARK.json, one directory up, declares the
// workloads and every metric with its unit; README.md says what each is for.
//
//	go run . -workload yz_p8 -seed 7 -seconds 10 -trace 0   one end-to-end run
//	go run . -workload yz_p8 -seed 7 -seconds 10 -trace 1   its per-layer pass
//	go run . -seed 7                                        the whole suite
//	go run . -aa                                            the suite twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cadycore/internal/dycore"
	"cadycore/internal/fft"
)

// declFile is BENCHMARK.json relative to this directory, from which the
// program is run.
const declFile = "../BENCHMARK.json"

// metricDecl and declaration mirror BENCHMARK.json, the one place where the
// workload and metric names, units and bounds are written down.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// metrics returns the metrics one pass reports: every end-to-end metric with
// tracing off, every per-layer metric from the traced pass.
func (d *declaration) metrics(traced bool) []metricDecl {
	if traced {
		return d.PerLayer
	}
	return d.EndToEnd
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// nominalSeconds is the run length the issue sized the five counts for (every
// workload ≈ 20 s on the 2-core build host). -seconds scales all five by one
// common factor, seconds/nominalSeconds, so counts stay fixed for a given
// -seconds and every count metric repeats exactly.
const nominalSeconds = 20

// The job mix is generated in whole periods, so every run has the same class
// shares.
func scaleJobs(n, seconds int) int {
	p := len(mixPeriod)
	k := n * seconds / nominalSeconds / p * p
	if k < 2*p {
		k = 2 * p
	}
	return k
}

func scaleSteps(n, seconds int) int {
	k := n * seconds / nominalSeconds
	if k < 4*warmupSteps {
		k = 4 * warmupSteps
	}
	return k
}

// workload is one named workload, ready to run.
type workload struct {
	name string
	run  func(seed int64, traced bool, tracePath string, env map[string]any) outcome
}

// outDir holds trace reports and the service workloads' temp dirs; it is
// git-ignored and inside the checkout.
const outDir = "out"

func workloads(seconds int) []workload {
	dy := func(name string, alg dycore.Algorithm, pa, pb, steps int) workload {
		c := dycoreCase{name: name, alg: alg, pa: pa, pb: pb, nx: 96, ny: 48, nz: 12, steps: scaleSteps(steps, seconds)}
		return workload{name, func(seed int64, traced bool, tracePath string, env map[string]any) outcome {
			return runDycore(c, seed, traced, tracePath, env)
		}}
	}
	sv := func(name string, fleet bool) workload {
		c := serviceCase{name: name, fleet: fleet, jobs: scaleJobs(400, seconds), nx: 48, ny: 24, nz: 8}
		return workload{name, func(seed int64, traced bool, tracePath string, env map[string]any) outcome {
			return runService(c, seed, traced, filepath.Join(outDir, "tmp"), tracePath, env)
		}}
	}
	return []workload{
		dy("serial_yz", dycore.AlgBaselineYZ, 1, 1, 240),
		dy("yz_p8", dycore.AlgBaselineYZ, 4, 2, 440),
		dy("ca_p8", dycore.AlgCommAvoid, 4, 2, 240),
		sv("service_mix", false),
		sv("fleet_mix", true),
	}
}

// environment records where the numbers were taken.
func environment() map[string]any {
	env := map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     "unknown",
		"cpu":        "unknown",
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	if root, err := filepath.Abs(".."); err == nil {
		// Look for a repository in the checkout only, not above it.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	}
	if b, err := git.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// noiseProbe is a fixed pure-CPU loop (real FFT round trips, ~200 ms): run
// before and after a workload, the ratio of the two times says whether a
// neighbour took the machine in between.
func noiseProbe() time.Duration {
	const n, rounds = 96, 30000
	plan := fft.NewRealPlan(n)
	row := make([]float64, n)
	for i := range row {
		row[i] = float64(i % 7)
	}
	spec := make([]complex128, plan.SpecLen())
	scratch := make([]complex128, plan.ScratchLen())
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		plan.Forward(row, spec, scratch)
		plan.Inverse(spec, row, scratch)
	}
	return time.Since(t0)
}

// noisyAbove is the before/after probe ratio beyond which a run is repeated.
const noisyAbove = 1.10

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce runs one pass of one workload, bracketed by the noise probe, and
// repeats it while the probe says the machine was disturbed (up to retries
// times). It checks the emitted metric set against the declaration.
func runOnce(d *declaration, w workload, seed int64, traced bool, retries int, log io.Writer) (outcome, error) {
	var out outcome
	for attempt := 0; ; attempt++ {
		env := environment()
		env["workload"], env["seed"] = w.name, seed
		before := noiseProbe()
		out = w.run(seed, traced, filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", w.name, seed)), env)
		after := noiseProbe()
		ratio := math.Max(float64(after)/float64(before), float64(before)/float64(after))
		if traced {
			out.metrics["bench.noise_probe_ratio"] = ratio
		}
		if ratio <= noisyAbove || attempt >= retries {
			if ratio > noisyAbove {
				fmt.Fprintf(log, "%s: noisy run kept (probe ratio %.2f)\n", w.name, ratio)
			}
			break
		}
		fmt.Fprintf(log, "%s: noisy run (probe ratio %.2f), repeating\n", w.name, ratio)
	}
	declared := map[string]bool{}
	for _, md := range d.metrics(traced) {
		declared[md.Name] = true
		if _, ok := out.metrics[md.Name]; !ok {
			if !traced && out.failed == 0 {
				return out, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, md.Name)
			}
			// A layer the workload does not exercise reports 0.
			out.metrics[md.Name] = 0
		}
	}
	for name := range out.metrics {
		if !declared[name] {
			return out, fmt.Errorf("%s: metric %s is not declared in BENCHMARK.json", w.name, name)
		}
	}
	return out, nil
}

// report prints the metrics by name with their units, then failures.
func report(w io.Writer, name string, traced bool, decls []metricDecl, out outcome) {
	pass := "end-to-end"
	if traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s · %s · attempted %d failed %d\n", name, pass, out.attempted, out.failed)
	for _, md := range decls {
		note := ""
		if md.Name == "unit_ms_tail" {
			note = fmt.Sprintf("   (p%d)", out.tailPct)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s%s\n", md.Name, out.metrics[md.Name], md.Unit, note)
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func resultLine(decls []metricDecl, out outcome) result {
	r := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, md := range decls {
		r.Metrics[md.Name] = metricValue{Value: out.metrics[md.Name], Unit: md.Unit}
	}
	return r
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == ballastArg {
		return ballastChild()
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: the whole suite, both passes)")
	seed := fs.Int64("seed", 1, "workload seed: perturbs the initial state, orders the job mix")
	seconds := fs.Int("seconds", 0, "run length: scales the fixed counts by seconds/20 (default run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced per-layer pass")
	aa := fs.Bool("aa", false, "run the suite twice on this build and compare the two against the bounds")
	retries := fs.Int("retries", -1, "repeats of a run the noise probe marks noisy (default 0 for one workload, 2 for the suite)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, err := loadDeclaration(declFile)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = d.RunSeconds
	}
	if *name == "" || *aa {
		if *retries < 0 {
			*retries = 2
		}
		if *aa {
			return runAA(d, *seconds, *seed, *retries, stdout, stderr)
		}
		return runSuite(d, *seconds, *seed, *retries, stdout, stderr)
	}
	if *retries < 0 {
		*retries = 0
	}
	for _, w := range workloads(*seconds) {
		if w.name != *name {
			continue
		}
		traced := *trace != 0
		decls := d.metrics(traced)
		defer startBallast(stderr)()
		out, err := runOnce(d, w, *seed, traced, *retries, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		report(stdout, w.name, traced, decls, out)
		line, err := json.Marshal(resultLine(decls, out))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if out.failed > 0 {
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
	return 2
}

// runChild runs one pass of one workload in a process of its own, which is
// what the driver does: peak memory and heap state are then the workload's
// own. It copies the child's report to stdout and returns its result line.
func runChild(name string, seed int64, seconds int, traced bool, retries int, stdout, stderr io.Writer) (result, error) {
	var r result
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", trace, "-retries", fmt.Sprint(retries))
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	report, line, _ := cutLast(strings.TrimRight(string(out), "\n"))
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return r, fmt.Errorf("%s: no result line (%v): %v", name, runErr, err)
	}
	fmt.Fprintln(stdout, report)
	return r, nil
}

// cutLast splits s around its last newline.
func cutLast(s string) (before, last string, found bool) {
	i := strings.LastIndexByte(s, '\n')
	if i < 0 {
		return "", s, false
	}
	return s[:i], s[i+1:], true
}

func header(w io.Writer, what string, seed int64) {
	env := environment()
	fmt.Fprintf(w, "%s · commit %v · %v · %v · nproc %v · GOMAXPROCS %v · seed %d\n",
		what, env["commit"], env["go"], env["cpu"], env["nproc"], env["gomaxprocs"], seed)
}

// runSuite runs every workload, the end-to-end pass then the traced pass.
func runSuite(d *declaration, seconds int, seed int64, retries int, stdout, stderr io.Writer) int {
	header(stdout, "suite", seed)
	code := 0
	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			r, err := runChild(w.Name, seed, seconds, traced, retries, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !r.Correct {
				code = 1
			}
		}
	}
	return code
}

// exactUnits mark metrics that are counts or simulated-clock figures: two runs
// of one build on one seed must agree on them to the last bit.
var exactUnits = map[string]bool{"count": true, "B": true, "sim_ms": true, "sim_ratio": true}

// runAA runs the suite twice on the same build and seed and compares: every
// end-to-end metric against its bound, every exact per-layer metric for
// identity. It prints the comparison as a markdown table.
func runAA(d *declaration, seconds int, seed int64, retries int, stdout, stderr io.Writer) int {
	header(stdout, "A/A", seed)
	var table strings.Builder
	fmt.Fprintln(&table, "| workload | metric | run A | run B | B worse by | bound | |")
	fmt.Fprintln(&table, "|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range d.Workloads {
		var e2e, layer [2]result
		for i := range e2e {
			var err error
			if e2e[i], err = runChild(w.Name, seed, seconds, false, retries, io.Discard, stderr); err == nil {
				layer[i], err = runChild(w.Name, seed, seconds, true, retries, io.Discard, stderr)
			}
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !e2e[i].Correct || !layer[i].Correct {
				fmt.Fprintf(stderr, "%s: failed operations\n", w.Name)
				code = 1
			}
		}
		for _, md := range d.EndToEnd {
			a, b := e2e[0].Metrics[md.Name].Value, e2e[1].Metrics[md.Name].Value
			worse := (b - a) / a
			if md.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if math.Abs(worse) > md.Bound {
				verdict = "BREACH"
				code = 1
			}
			fmt.Fprintf(&table, "| %s | %s | %.5g | %.5g | %+.1f%% | %.0f%% | %s |\n",
				w.Name, md.Name, a, b, 100*worse, 100*md.Bound, verdict)
		}
		var differ []string
		exact := 0
		for _, md := range d.PerLayer {
			if !exactUnits[md.Unit] {
				continue
			}
			exact++
			if layer[0].Metrics[md.Name].Value != layer[1].Metrics[md.Name].Value {
				differ = append(differ, md.Name)
			}
		}
		verdict := "ok"
		if len(differ) > 0 {
			verdict = "DIFFER: " + strings.Join(differ, " ")
			code = 1
		}
		fmt.Fprintf(&table, "| %s | %d count and simulated-clock metrics | | | identical | 0%% | %s |\n", w.Name, exact, verdict)
	}
	fmt.Fprint(stdout, table.String())
	return code
}
