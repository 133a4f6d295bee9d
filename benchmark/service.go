package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fleet"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/server"
	"cadycore/internal/state"
)

// serviceCase is one service workload: a closed loop of clients driving a
// fixed, seeded job mix through the HTTP API on loopback.
type serviceCase struct {
	name       string
	fleet      bool // coordinator + 2 one-worker backends instead of one two-worker server
	jobs       int  // primary pass; the traced pass runs half
	nx, ny, nz int  // job mesh
}

const (
	// clients is the closed-loop client count: each caller waits for its job
	// before sending the next, and the build host has two cores.
	clients = 2
	// pollEvery is the client's status poll period.
	pollEvery = 5 * time.Millisecond
	// serviceSetupReps is how many times the topology is booted and warmed
	// in one run; setup_s is the median.
	serviceSetupReps = 5
	// jobTimeout bounds one job; a job that outlives it counts as failed.
	jobTimeout = 60 * time.Second
)

// node is one HTTP listener on loopback and the goroutine serving it.
type node struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // always ErrServerClosed after stop
	}()
	return n, nil
}

func (n *node) stop(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	<-n.done
	return err
}

// topology is a booted service: what the clients talk to, and what has to be
// shut down and removed afterwards.
type topology struct {
	url      string   // the API the clients use
	backends []string // the servers that run jobs (the same server without a fleet)
	dir      string
	client   *http.Client      // every connection of the run, so that it can be closed
	route    map[string]string // stable backend host:port → this run's listener
	nodes    []*node
	servers  []*server.Server
	coord    *fleet.Coordinator
}

// boot starts the topology of c under root: one server with two workers, or a
// coordinator over two one-worker backends sharing a checkpoint store. Every
// server persists under its own Dir, so the planner cache and the fsync'd
// checkpoints are in play on both.
func boot(c serviceCase, root string) (t *topology, err error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, c.name+"-")
	if err != nil {
		return nil, err
	}
	t = &topology{dir: dir, route: map[string]string{}}
	var dialer net.Dialer
	t.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := t.route[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	defer func() {
		if err != nil {
			_ = t.shutdown()
			t = nil
		}
	}()
	addServer := func(cfg server.Config) (*node, error) {
		srv, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		t.servers = append(t.servers, srv)
		n, err := serve(srv)
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, n)
		t.backends = append(t.backends, n.url)
		return n, nil
	}
	if !c.fleet {
		n, err := addServer(server.Config{Workers: 2, QueueCap: 4, Dir: filepath.Join(dir, "server")})
		if err != nil {
			return t, err
		}
		t.url = n.url
		return t, nil
	}
	shared := filepath.Join(dir, "shared")
	for i := 0; i < 2; i++ {
		store, err := checkpoint.NewDirStore(shared)
		if err != nil {
			return t, err
		}
		name := "backend" + strconv.Itoa(i)
		n, err := addServer(server.Config{Workers: 1, QueueCap: 4, Shared: store, Dir: filepath.Join(dir, name)})
		if err != nil {
			return t, err
		}
		// The coordinator routes a job by hashing its ID with the backend's
		// URL. Listeners get a fresh port every run, so the backends go by
		// stable names, resolved by the dialer: the same jobs then go to the
		// same backends on every run.
		t.route[name+":80"] = strings.TrimPrefix(n.url, "http://")
		t.backends[i] = "http://" + name
	}
	t.coord, err = fleet.New(fleet.Config{Backends: t.backends, StoreDir: shared, Client: t.client})
	if err != nil {
		return t, err
	}
	n, err := serve(t.coord)
	if err != nil {
		return t, err
	}
	t.nodes = append(t.nodes, n)
	t.url = n.url
	return t, nil
}

// shutdown drains the topology through the components' own Shutdown, waits
// for every goroutine the benchmark started, and removes the temp dir.
func (t *topology) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	t.client.CloseIdleConnections()
	if t.coord != nil {
		errs = append(errs, t.coord.Shutdown(ctx))
	}
	for _, s := range t.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	t.client.CloseIdleConnections() // the coordinator's, once its loops have stopped
	for _, n := range t.nodes {
		errs = append(errs, n.stop(ctx))
	}
	errs = append(errs, os.RemoveAll(t.dir))
	return errors.Join(errs...)
}

// jobView decodes the fields the benchmark reads from both status shapes:
// the server's JobStatus and the coordinator's JobInfo.
type jobView struct {
	ID           string             `json:"id"`
	State        string             `json:"state"`
	StepsDone    int                `json:"steps_done"`
	StepsTotal   int                `json:"steps_total"`
	Error        string             `json:"error"`
	SubmittedAt  time.Time          `json:"submitted_at"`
	StartedAt    time.Time          `json:"started_at"`
	FinishedAt   time.Time          `json:"finished_at"`
	Diagnostics  map[string]float64 `json:"diagnostics"`
	Comm         *server.CommStats  `json:"comm"`
	Counters     *dycore.Counters   `json:"counters"`
	Backend      string             `json:"backend"`
	BackendJobID string             `json:"backend_job_id"`
	Migrations   int                `json:"migrations"`
}

func (v *jobView) terminal() bool {
	switch v.State {
	case "completed", "failed", "cancelled", "interrupted":
		return true
	}
	return false
}

// check is the per-job output check: completed, every step done, finite
// diagnostics, mean surface pressure 1000 hPa ± 0.01.
func (v *jobView) check() error {
	if v.State != "completed" {
		return fmt.Errorf("job %s ended %q: %s", v.ID, v.State, v.Error)
	}
	if v.StepsDone != v.StepsTotal || v.StepsTotal == 0 {
		return fmt.Errorf("job %s did %d of %d steps", v.ID, v.StepsDone, v.StepsTotal)
	}
	if len(v.Diagnostics) == 0 || v.Diagnostics["all_finite"] != 1 {
		return fmt.Errorf("job %s: state not finite", v.ID)
	}
	for name, d := range v.Diagnostics {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("job %s: diagnostic %s is %v", v.ID, name, d)
		}
	}
	if p := v.Diagnostics["mean_surface_pressure_hpa"]; math.Abs(p-1000) > 0.01 {
		return fmt.Errorf("job %s: mean surface pressure %.4f hPa, want 1000 ± 0.01", v.ID, p)
	}
	return nil
}

// jobRecord is what a client keeps of one job.
type jobRecord struct {
	class             int
	sent, seen        time.Time // first submit attempt, terminal state observed
	postStart, posted time.Time // the accepted POST
	polls, retries    int
	cpuSeen           float64  // process CPU seconds at seen
	view              jobView  // terminal status as polled
	backend           *jobView // the backend's own status (fleet, traced pass)
	err               error
}

func (r *jobRecord) latencyMs() float64 { return ms(r.seen.Sub(r.sent)) }

// getJSON fetches url and decodes the body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runJob is one closed-loop iteration: submit (waiting out backpressure as
// the server asks), poll to a terminal state. With a lane it records spans.
func (t *topology) runJob(j job, run int, l *lane, fetchBackend bool) (r jobRecord) {
	r.class = j.class
	body, err := json.Marshal(j.spec)
	if err != nil {
		r.err = err
		return r
	}
	root := -1
	if l != nil {
		root = l.begin("client.job", -1, run, 0)
		defer func() { l.end(root) }()
	}
	r.sent = time.Now()
	deadline := r.sent.Add(jobTimeout)
	for r.view.ID == "" {
		if time.Now().After(deadline) {
			r.err = fmt.Errorf("submit: gave up after %d backpressure responses", r.retries)
			return r
		}
		r.postStart = time.Now()
		resp, err := t.client.Post(t.url+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			r.err = fmt.Errorf("submit: %w", err)
			return r
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			err = json.NewDecoder(resp.Body).Decode(&r.view)
			resp.Body.Close()
			if err != nil || r.view.ID == "" {
				r.err = fmt.Errorf("submit: bad response: %v", err)
				return r
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			wait := 50 * time.Millisecond
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s >= 0 {
				wait = time.Duration(s) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			r.retries++
			time.Sleep(wait)
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			r.err = fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(msg))
			return r
		}
	}
	r.posted = time.Now()
	if l != nil {
		l.add("server.submit", root, run, r.postStart, r.posted)
	}
	for !r.view.terminal() {
		if time.Now().After(deadline) {
			r.err = fmt.Errorf("job %s still %q after %v", r.view.ID, r.view.State, jobTimeout)
			return r
		}
		time.Sleep(pollEvery)
		s := -1
		if l != nil {
			s = l.begin("server.poll", root, run, r.polls)
		}
		err := getJSON(t.client, t.url+"/jobs/"+r.view.ID, &r.view)
		if l != nil {
			l.end(s)
		}
		r.polls++
		if err != nil {
			r.err = fmt.Errorf("poll: %w", err)
			return r
		}
	}
	r.seen, r.cpuSeen = time.Now(), usage().cpuSec
	if r.err = r.view.check(); r.err != nil {
		return r
	}
	if fetchBackend && r.view.BackendJobID != "" {
		r.backend = new(jobView)
		if err := getJSON(t.client, r.view.Backend+"/jobs/"+r.view.BackendJobID, r.backend); err != nil {
			r.err = fmt.Errorf("backend status: %w", err)
			return r
		}
	}
	if l != nil {
		// The phases the server reports, laid on the client's clock (one
		// process, one clock): together with server.submit they tile the job.
		sv := r.serverView()
		if r.backend != nil {
			l.add("fleet.dispatch", root, run, r.view.SubmittedAt, sv.SubmittedAt)
		}
		l.add("server.queue", root, run, sv.SubmittedAt, sv.StartedAt)
		l.add("server.run", root, run, sv.StartedAt, sv.FinishedAt)
		if r.backend != nil {
			l.add("fleet.finish_lag", root, run, sv.FinishedAt, r.view.FinishedAt)
		}
		l.add("server.finish_to_seen", root, run, r.view.FinishedAt, r.seen)
	}
	return r
}

// serverView is the status of the server that ran the job.
func (r *jobRecord) serverView() *jobView {
	if r.backend != nil {
		return r.backend
	}
	return &r.view
}

// pass is one timed closed loop over jobs.
type pass struct {
	recs  []jobRecord
	start time.Time
	cpu0  float64
	wall  time.Duration
	tr    *tracer
}

// runPass drives the jobs through the topology with the closed-loop clients.
func (t *topology) runPass(jobs []job, traced bool) pass {
	p := pass{recs: make([]jobRecord, len(jobs))}
	if traced {
		p.tr = newTracer(clients, 64*(len(jobs)/clients+1))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC() // peak memory should not depend on what ran before
	p.cpu0, p.start = usage().cpuSec, time.Now()
	for c := 0; c < clients; c++ {
		var l *lane
		if traced {
			l = p.tr.lanes[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				p.recs[i] = t.runJob(jobs[i], i, l, traced)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(p.start)
	return p
}

// timed returns the jobs that passed their check as a series (submit→seen
// latency), in submission order, and counts the rest into out.
func (p *pass) timed(out *outcome) *series {
	s := &series{start: p.start, cpu0: p.cpu0}
	for i := range p.recs {
		if r := &p.recs[i]; r.err != nil {
			out.fail(1, "%v", r.err)
		} else {
			s.add(r.latencyMs(), r.seen, r.cpuSeen)
		}
	}
	return s
}

// scrape reads the unlabeled samples of a Prometheus text exposition.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// warmUp runs one job of every class, which fills the planner cache.
func (t *topology) warmUp(c serviceCase, seed int64) error {
	for class := 0; class < numClasses; class++ {
		sp := classSpec(class, c.nx, c.ny, c.nz)
		sp.PerturbSeed = seed
		if r := t.runJob(job{class: class, spec: sp}, 0, nil, false); r.err != nil {
			return fmt.Errorf("warm-up %s job: %w", classNames[class], r.err)
		}
	}
	return nil
}

// runService runs one service workload: the end-to-end pass (traced false) or
// the per-layer pass (traced true: an untraced half-length loop as the
// tracing-overhead base, the traced half-length loop, the replays).
func runService(c serviceCase, seed int64, traced bool, tmpRoot, tracePath string, env map[string]any) (out outcome) {
	out = outcome{metrics: map[string]float64{}}
	n := c.jobs
	if traced {
		n = c.jobs / 2
	}
	out.attempted = n
	if clients > runtime.NumCPU() {
		out.fail(n, "%d client goroutines on %d CPUs: the clients would queue on each other", clients, runtime.NumCPU())
		return out
	}
	jobs := jobMix(seed, n, c.nx, c.ny, c.nz)

	var t *topology
	var setups []float64
	reps := serviceSetupReps
	if traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if t != nil {
			if err := t.shutdown(); err != nil {
				out.fail(n, "shutdown: %v", err)
				return out
			}
		}
		t0 := time.Now()
		var err error
		if t, err = boot(c, tmpRoot); err == nil {
			err = t.warmUp(c, seed)
		}
		if err != nil {
			out.fail(n, "set-up: %v", err)
			if t != nil {
				_ = t.shutdown()
			}
			return out
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := t.shutdown(); err != nil {
			out.fail(n, "shutdown: %v", err)
		}
	}()

	p := t.runPass(jobs, false)
	ps := p.timed(&out)
	if !traced {
		if len(ps.lat) == 0 {
			return out
		}
		ps.endToEnd(out.metrics)
		out.metrics["setup_s"] = median(setups)
		out.metrics["peak_rss_mb"] = usage().peakRSSMB
		return out
	}
	if out.failed > 0 {
		return out
	}

	tp := t.runPass(jobs, true)
	tps := tp.timed(&out)
	if out.failed > 0 {
		return out
	}
	m := out.metrics
	m["bench.trace_overhead_share"] = median(tps.lat)/median(ps.lat) - 1
	out.tailPct, m["unit_ms_tail"] = tail(ps.lat)
	total, self, coverage := tp.tr.selfTimes()
	m["bench.span_coverage"] = coverage
	t.layerMetrics(m, c, &tp)

	// Replays on the job mesh: the kernels and comm layers on the geometry of
	// the short class, the checkpoint and planner layers as the server calls
	// them.
	g := grid.New(c.nx, c.ny, c.nz)
	sp := classSpec(classShort, c.nx, c.ny, c.nz)
	cfg := dycore.DefaultConfig()
	cfg.M = sp.M
	cfg.Dt1, cfg.Dt2 = 30, 180 // the service's defaults
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: sp.PA, PB: sp.PB, Cfg: cfg}
	hs := heldsuarez.Standard()
	res := dycore.RunWithHook(set, g, comm.TianheLike(), perturbedInit(seed), sp.Steps,
		func(g *grid.Grid, st *state.State, _ int) { hs.Apply(g, st, cfg.Dt2) })
	rp := replayKernels(g, set, res.Finals[0])
	rp.addComm(g, set, res)
	for k, v := range rp.metrics {
		m[k] = v
	}
	if err := replayCheckpoint(m, g, res.Finals, t.dir); err != nil {
		out.fail(n, "checkpoint replay: %v", err)
	}
	if err := replayPlanner(m, g, cfg, classSpec(classAuto, c.nx, c.ny, c.nz).Procs, t.dir); err != nil {
		out.fail(n, "planner replay: %v", err)
	}

	env["replay_s"] = rp.metrics
	env["span_total_s"], env["span_self_s"] = secondsMap(total), secondsMap(self)
	if err := tp.tr.write(tracePath, env); err != nil {
		out.fail(n, "%v", err)
	}
	return out
}

// layerMetrics fills the server, checkpoint-count, comm-count and fleet
// metrics from the traced pass: client-side timings, the servers' reported
// timestamps and counts, and the /metrics counters.
func (t *topology) layerMetrics(m map[string]float64, c serviceCase, p *pass) {
	var submit, queue, seenLag, polls, dispatch, finishLag, overhead []float64
	var runMs [numClasses][]float64
	var perStep [numClasses]map[string][]float64
	for class := range perStep {
		perStep[class] = map[string][]float64{}
	}
	var retries, steps int
	perBackend := map[string]int{}
	for i := range p.recs {
		r := &p.recs[i]
		sv := r.serverView()
		submit = append(submit, ms(r.posted.Sub(r.postStart)))
		queue = append(queue, ms(sv.StartedAt.Sub(sv.SubmittedAt)))
		seenLag = append(seenLag, ms(r.seen.Sub(r.view.FinishedAt)))
		polls = append(polls, float64(r.polls))
		runMs[r.class] = append(runMs[r.class], ms(sv.FinishedAt.Sub(sv.StartedAt)))
		retries += r.retries
		steps += sv.StepsDone
		if sv.Comm != nil && sv.Counters != nil {
			for name, v := range jobTotals(sv) {
				perStep[r.class][name] = append(perStep[r.class][name], v/float64(sv.StepsDone))
			}
		}
		if r.backend != nil {
			perBackend[r.view.Backend]++
			dispatch = append(dispatch, ms(sv.SubmittedAt.Sub(r.view.SubmittedAt)))
			finishLag = append(finishLag, ms(r.view.FinishedAt.Sub(sv.FinishedAt)))
			overhead = append(overhead, r.latencyMs()-ms(sv.FinishedAt.Sub(sv.SubmittedAt)))
		}
	}
	jobs := float64(len(p.recs))
	m["server.submit_rtt_ms"] = median(submit)
	m["server.queue_wait_ms"] = median(queue)
	m["server.finish_to_seen_ms"] = median(seenLag)
	m["server.polls_per_job"] = median(polls)
	m["server.backpressure_retries"] = float64(retries)
	for class, name := range classNames {
		m["server.run_ms."+name] = median(runMs[class])
	}
	m["server.steps_per_s"] = float64(steps) / p.wall.Seconds()

	// The count and simulated-clock figures of the dycore workloads, from the
	// jobs' own reports. Jobs of one class report identical figures, so the
	// class median is that figure even when the fleet restarted a job from a
	// checkpoint (its report then covers the last segment only); classes are
	// weighted by their share of the mix's steps, which is fixed.
	var mixSteps float64
	for _, class := range mixPeriod {
		mixSteps += float64(classSpec(class, c.nx, c.ny, c.nz).Steps)
	}
	for _, class := range mixPeriod {
		w := float64(classSpec(class, c.nx, c.ny, c.nz).Steps) / mixSteps
		for name, vs := range perStep[class] {
			m[name] += w * median(vs)
		}
	}

	// Server-side counters cover both passes and the warm-up jobs: report
	// them per job submitted.
	var rejected, snapshots, submitted float64
	for _, u := range t.backends {
		if v, err := scrape(t.client, u); err == nil {
			rejected += v["cady_jobs_rejected_total"]
			snapshots += v["cady_checkpoints_total"]
			submitted += v["cady_jobs_submitted_total"]
		}
	}
	m["server.rejected"] = rejected
	if submitted > 0 {
		m["checkpoint.snapshots_per_job"] = snapshots / submitted
	}
	if t.coord == nil {
		return
	}
	m["fleet.dispatch_ms"] = median(dispatch)
	m["fleet.finish_lag_ms"] = median(finishLag)
	m["fleet.overhead_ms"] = median(overhead)
	most := 0
	for _, u := range t.backends {
		if perBackend[u] > most {
			most = perBackend[u]
		}
	}
	m["fleet.backend_share_max"] = float64(most) / jobs
	if v, err := scrape(t.client, t.url); err == nil {
		m["fleet.dispatches_total"] = v["cady_fleet_dispatches_total"]
		m["fleet.dispatch_errors_total"] = v["cady_fleet_dispatch_errors_total"]
		m["fleet.migrations_total"] = v["cady_fleet_migrations_total"]
	}
}

// jobTotals are the figures of a job's own report that grow with its length,
// by the name of the per-step metric they feed (see runTotals).
func jobTotals(v *jobView) map[string]float64 {
	return map[string]float64{
		"comm.msgs_per_step":              float64(v.Comm.MsgsSent),
		"comm.bytes_per_step":             float64(v.Comm.BytesSent),
		"comm.collectives_per_step":       float64(v.Comm.Collectives),
		"comm.sim_compute_ms_per_step":    v.Comm.CompTimeS * 1e3,
		"comm.sim_stencil_ms_per_step":    v.Comm.StencilTimeS * 1e3,
		"comm.sim_collective_ms_per_step": v.Comm.CollectiveTime * 1e3,
		"dycore.sim_step_ms":              v.Comm.SimTimeS * 1e3,
		"dycore.halo_rounds_per_step":     float64(v.Counters.HaloExchanges),
		"dycore.c_evals_per_step":         float64(v.Counters.CEvaluations),
		"dycore.smooth_calls_per_step":    float64(v.Counters.SmoothingCalls),
		"filter.calls_per_step":           float64(v.Counters.FilterCalls),
	}
}
