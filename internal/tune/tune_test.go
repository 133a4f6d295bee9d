package tune

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
)

func planCfg() dycore.Config {
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	cfg.Dt1, cfg.Dt2 = 40, 240
	return cfg
}

// sameRun identifies what a candidate executes: the algorithm family (the
// original algorithm is one family under either decomposition), the
// effective px×py×pz grid, M, and the CA halo's stage depth.
type sameRun struct {
	ca                    bool
	px, py, pz, m, stages int
}

func runOf(c dycore.Setup) sameRun {
	r := sameRun{ca: c.Alg == dycore.AlgCommAvoid, px: 1, py: c.PA, pz: c.PB, m: c.Cfg.M}
	if c.Alg == dycore.AlgBaselineXY {
		r.px, r.py, r.pz = c.PA, c.PB, 1
	}
	if r.ca {
		r.stages = c.Cfg.StageDepth()
	}
	return r
}

func TestCandidatesDeterministicAndFeasible(t *testing.T) {
	prof := DefaultProfile()
	cfg := planCfg()
	opt := SearchOptions{VaryM: true}
	for _, tc := range []struct {
		g     *grid.Grid
		procs int
	}{
		{grid.New(16, 12, 4), 4},
		{grid.New(48, 24, 8), 8},
		{grid.New(192, 96, 24), 8},
	} {
		g := tc.g
		a := Candidates(g, tc.procs, cfg, prof, opt)
		b := Candidates(g, tc.procs, cfg, prof, opt)
		if len(a) == 0 {
			t.Fatalf("%s: no candidates", g)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: candidate enumeration is not deterministic", g)
		}
		seen := map[sameRun]string{}
		for _, c := range a {
			if twin, ok := seen[runOf(c)]; ok {
				t.Errorf("%s: %s is the same run as %s", g, Key(c), twin)
			}
			seen[runOf(c)] = Key(c)
			if c.Alg != dycore.AlgCommAvoid && c.Alg != dycore.AlgBaselineYZ {
				t.Errorf("%s: scheme %s enumerated", g, c.Alg)
			}
			if c.PA > g.Ny/2 || c.PB > g.Nz/2 {
				t.Errorf("%s: infeasible candidate %s", g, Key(c))
			}
		}
	}
}

// TestStepCountsMatchIntegrators pins the model's per-step counts to the
// integrators' own: one step of each scheme and ablation on a 2×2 grid (the
// second of two, so the bootstrap and the deferred final smoothing cancel),
// checked against dycore.Counters and the z-collectives each rank entered.
func TestStepCountsMatchIntegrators(t *testing.T) {
	g := grid.New(16, 12, 4)
	cfg := planCfg()
	cfg.M = 3
	exactC, noFuse := cfg, cfg
	exactC.ExactC = true
	noFuse.NoFusedSmoothing = true
	ca := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}
	s1, s2, caExactC, caNoFuse := ca, ca, ca, ca
	s1.Cfg.StageM, s2.Cfg.StageM = 1, 2
	caExactC.Cfg, caNoFuse.Cfg = exactC, noFuse
	for _, tc := range []struct {
		name string
		c    dycore.Setup
	}{
		{"yz", dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg}},
		{"ca", ca},
		{"ca-s1", s1},
		{"ca-s2", s2},
		{"ca-exactc", caExactC},
		{"ca-nofuse", caNoFuse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one := dycore.Run(tc.c, g, comm.Zero(), heldsuarez.InitialState, 1)
			two := dycore.Run(tc.c, g, comm.Zero(), heldsuarez.InitialState, 2)
			ranks := int64(tc.c.Procs())
			exchanges := two.Count.HaloExchanges - one.Count.HaloExchanges
			cEvals := two.Count.CEvaluations - one.Count.CEvaluations
			coll := (two.Agg.CollByCat[comm.CatCollectiveZ] - one.Agg.CollByCat[comm.CatCollectiveZ]) / ranks
			n := countsOf(tc.c)
			if float64(exchanges) != n.exchanges {
				t.Errorf("model prices %g exchanges per step, the integrator does %d", n.exchanges, exchanges)
			}
			if float64(cEvals) != n.cEvals || float64(coll) != n.cEvals {
				t.Errorf("model prices %g Ĉ evaluations per step, the integrator does %d (%d z-collectives per rank)",
					n.cEvals, cEvals, coll)
			}
		})
	}
}

func TestPlanDeterminism(t *testing.T) {
	g := grid.New(16, 12, 4)
	prof := DefaultProfile()
	cfg := planCfg()
	pl := &Planner{Profile: prof, TopK: 3, PilotSteps: 2}
	p1, err := pl.Plan(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pl.Plan(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same profile, different plans:\n%+v\n%+v", p1, p2)
	}
	if p1.ProfileHash != prof.Hash() {
		t.Errorf("plan not stamped with profile hash")
	}
	if !p1.Refined || p1.PilotStep <= 0 {
		t.Errorf("expected a refined plan with a pilot time, got %+v", p1)
	}
}

func TestPlanPrefersCommAvoidingYZ(t *testing.T) {
	// On a mesh with a y extent big enough for a pure-y decomposition, the
	// planner must land on the paper's answer: the communication-avoiding
	// algorithm under Y-Z.
	g := grid.New(32, 24, 6)
	pl := &Planner{Profile: DefaultProfile(), TopK: 4, PilotSteps: 2}
	p, err := pl.Plan(g, 4, planCfg())
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme != dycore.AlgCommAvoid {
		t.Errorf("planner chose %s (%s), want the communication-avoiding scheme", p.Scheme, p)
	}
	// The planned setup must actually run.
	setup := p.Setup(planCfg())
	if setup.Alg != dycore.AlgCommAvoid {
		t.Errorf("setup algorithm = %v", setup.Alg)
	}
}

func TestPlanRejectsInvalidConfig(t *testing.T) {
	cfg := planCfg()
	cfg.M = 0
	pl := &Planner{Profile: DefaultProfile(), TopK: -1}
	if p, err := pl.Plan(grid.New(16, 12, 4), 4, cfg); err == nil {
		t.Fatalf("M = 0 planned %s, want an error", p)
	}
}

func TestPlanCacheHitAndMiss(t *testing.T) {
	g := grid.New(16, 12, 4)
	prof := DefaultProfile()
	cfg := planCfg()
	dir := t.TempDir()
	pl := &Planner{Profile: prof, Cache: NewCache(dir), TopK: -1}
	p1, err := pl.Plan(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := pl.cacheKey(g, 4, cfg)
	if _, ok := pl.Cache.Get(key); !ok {
		t.Fatal("plan not memoized")
	}
	p2, err := pl.Plan(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("cache returned a different plan")
	}
	// Another machine must miss.
	pl2 := *pl
	pl2.Profile.Alpha *= 3
	if _, ok := pl.Cache.Get(pl2.cacheKey(g, 4, cfg)); ok {
		t.Fatal("cache hit for a different profile hash")
	}

	// Every other input that changes the answer must miss too: each row
	// changes one input of a planner that shares the cache with the base
	// request, and the cache must serve exactly what the same planner plans
	// uncached. On 48×24×12 with 8 ranks and M = 3 the base pick is staged
	// (ca-8x1-m3-s1, piloted over 2 steps), so every miss row moves the
	// answer. Time steps only scale values, so that row must hit.
	g8 := grid.New(48, 24, 12)
	cfg3 := planCfg()
	cfg3.M = 3
	base := Planner{Profile: prof, TopK: 4, PilotSteps: 2}
	shared := NewCache(t.TempDir())
	cached := base
	cached.Cache = shared
	p0, err := cached.Plan(g8, 8, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pl   func(*Planner)
		cfg  func(*dycore.Config)
		hit  bool
	}{
		{"no-staged", func(p *Planner) { p.Search.NoStaged = true }, nil, false},
		{"vary-m", func(p *Planner) { p.Search.VaryM = true }, nil, false},
		{"analytic-only", func(p *Planner) { p.TopK = -1 }, nil, false},
		{"pilot-width", func(p *Planner) { p.TopK = 1 }, nil, false},
		{"pilot-steps", func(p *Planner) { p.PilotSteps = 1 }, nil, false},
		{"no-overlap", nil, func(c *dycore.Config) { c.NoOverlap = true }, false},
		{"time-steps", nil, func(c *dycore.Config) { c.Dt1, c.Dt2 = 30, 180 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, cfg := base, cfg3
			if tc.pl != nil {
				tc.pl(&pl)
			}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			want, err := pl.Plan(g8, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if moved := !reflect.DeepEqual(want, p0); moved == tc.hit {
				t.Fatalf("uncached plan %s (moved=%v) — the row cannot test the key", want, moved)
			}
			pl.Cache = shared
			got, err := pl.Plan(g8, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cache served %s (refined %v, pilot %g), the same request uncached plans %s (refined %v, pilot %g)",
					got, got.Refined, got.PilotStep, want, want.Refined, want.PilotStep)
			}
			if same := pl.cacheKey(g8, 8, cfg) == base.cacheKey(g8, 8, cfg3); same != tc.hit {
				t.Errorf("key shared with the base request = %v, want %v", same, tc.hit)
			}
		})
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	// Hammer one cache directory from many goroutines mixing Get and Put;
	// run under -race in CI. Atomic temp+rename must keep every read
	// well-formed.
	dir := t.TempDir()
	c := NewCache(dir)
	plan := Plan{Version: PlanVersion, Mesh: [3]int{16, 12, 4}, Procs: 4,
		Scheme: dycore.AlgCommAvoid, PA: 2, PB: 2, M: 2, ProfileHash: "abc"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := "plan-16x12x4-p4-m2-h"
			for n := 0; n < 50; n++ {
				p := plan
				p.Stage = (i + n) % 2
				if err := c.Put(key, p); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, ok := c.Get(key); ok {
					if got.Version != PlanVersion || got.Scheme != dycore.AlgCommAvoid {
						t.Errorf("torn read: %+v", got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestEvaluateUnbalancedBeatsUniformWhenFilterHeavy(t *testing.T) {
	// With the polar-filter surcharge at its simulated-clock weight, the
	// latitude-weighted partition (RatedRows at unit rates) must be predicted
	// no slower than the uniform one.
	g := grid.New(32, 24, 6)
	prof := DefaultProfile()
	cfg := planCfg()
	base := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 4, PB: 1, Cfg: cfg}
	rows := RatedRows(g, prof, base, ones(base.PA*base.PB))
	if rows == nil {
		t.Fatal("expected a non-uniform weighted partition")
	}
	weighted := base
	weighted.RowStarts = rows
	eu := Evaluate(g, prof, base)
	ew := Evaluate(g, prof, weighted)
	if ew.Total > eu.Total {
		t.Errorf("weighted partition predicted slower than uniform: %g > %g (rows %v)",
			ew.Total, eu.Total, rows)
	}
	// Polar chunks must be thinner than mid-latitude chunks.
	if rows[1]-rows[0] >= rows[2]-rows[1] {
		t.Errorf("polar chunk not thinner: %v", rows)
	}
}

// servicePlanner mirrors the job service's default planner (server.New).
func servicePlanner() *Planner {
	return &Planner{Profile: ProfileFromModel(comm.TianheLike()), TopK: 2, PilotSteps: 1}
}

// TestServiceDefaultPlanIsUniformStencilCA pins the planner's space to
// scheme × factorisation × stage on the service's `auto` benchmark
// class. With the FFT-smoothing (`-sp`) and static weighted-row (`-rows`)
// twins enumerated, both pilot slots went to `-rows` twins of ca-4x1 and the
// uniform stencil layout — the fastest on the pilot's own clock — was never
// piloted.
func TestServiceDefaultPlanIsUniformStencilCA(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := planCfg()
	pl := servicePlanner()

	if n := len(Candidates(g, 4, cfg, pl.Profile, pl.Search)); n != 9 {
		t.Errorf("enumerated %d candidates, want 9 (3 factorisations × {ca, ca-s1, yz})", n)
	}
	ranked := pl.rank(g, 4, cfg)
	piloted := false
	for i, e := range ranked {
		key := Key(e.Setup)
		if strings.Contains(key, "-sp") || strings.Contains(key, "-rows") {
			t.Errorf("retired axis enumerated: %s", key)
		}
		if i < pl.topK() && key == "ca-4x1-m2" {
			piloted = true
		}
	}
	if !piloted {
		t.Errorf("uniform ca-4x1-m2 is not among the %d piloted leaders", pl.topK())
	}
	p, err := pl.Plan(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if key := Key(p.Setup(cfg)); key != "ca-4x1-m2" || p.RowStarts != nil {
		t.Errorf("planned %s (rows %v), want ca-4x1-m2 on the uniform partition", key, p.RowStarts)
	}
}

// TestPlanCacheIgnoresRetiredVersion: memos written by earlier planners must
// be re-planned, not half-decoded into a layout the current planner would
// never choose — testdata/plan-v3.json (a `-sp-rows` twin, verbatim from that
// release's service cache) and testdata/plan-v4.json (ca-4x1-m2 with its
// retired "workers": 1, verbatim from `cadytune plan -cache` at version 4).
func TestPlanCacheIgnoresRetiredVersion(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := planCfg()
	for _, file := range []string{"plan-v3.json", "plan-v4.json"} {
		t.Run(file, func(t *testing.T) {
			pl := servicePlanner()
			pl.Cache = NewCache(t.TempDir())
			key := pl.cacheKey(g, 4, cfg)
			old, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			//cadyvet:volatile plants a stale memo for the cache to reject; it never needs to survive a crash
			if err := os.WriteFile(filepath.Join(pl.Cache.Dir(), key+".json"), old, 0o644); err != nil {
				t.Fatal(err)
			}
			if p, ok := pl.Cache.Get(key); ok {
				t.Fatalf("cache served a version-%d plan: %s", p.Version, p)
			}
			p, err := pl.Plan(g, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.Version != PlanVersion || p.RowStarts != nil {
				t.Errorf("re-plan returned %+v, want a version-%d uniform plan", p, PlanVersion)
			}
			if got, ok := pl.Cache.Get(key); !ok || !reflect.DeepEqual(got, p) {
				t.Errorf("re-plan did not replace the stale memo: %+v (ok=%v)", got, ok)
			}
		})
	}
}
