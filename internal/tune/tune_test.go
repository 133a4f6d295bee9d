package tune

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
)

// quickProfile is a fixed profile for deterministic planner tests (no
// wall-clock measurement involved).
func quickProfile() Profile {
	p := DefaultProfile()
	return p
}

func planCfg() dycore.Config {
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	cfg.Dt1, cfg.Dt2 = 40, 240
	return cfg
}

func TestProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "machine.json")
	p := Calibrate(CalibrateOptions{
		Rounds: 4, Nx: 16, Ny: 10, Nz: 4, MinKernelTime: time.Millisecond,
	})
	if err := p.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	q, err := LoadProfile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\nsaved  %+v\nloaded %+v", p, q)
	}
	if p.Hash() != q.Hash() {
		t.Fatalf("hash changed across round trip")
	}
	// A different profile must hash differently.
	q.Kernels.Adapt *= 2
	if p.Hash() == q.Hash() {
		t.Fatal("distinct profiles share a hash")
	}
}

func TestLoadProfileRejectsVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "machine.json")
	p := DefaultProfile()
	p.Version = ProfileVersion + 1
	data := []byte(`{"version": 999, "alpha": 1e-5, "beta": 1e-10, "overhead": 1e-6, "compute_rate": 1e8,
		"kernels": {"adapt": 1, "advect": 1, "smooth": 1, "csum": 1, "filter_row": 1}}`)
	//cadyvet:volatile hand-writes an invalid profile for LoadProfile to reject; it never needs to survive a crash
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(path); err == nil {
		t.Fatal("expected version-mismatch error")
	}
}

func TestCalibrateFitsNetworkModel(t *testing.T) {
	p := Calibrate(CalibrateOptions{
		Rounds: 8, Nx: 16, Ny: 10, Nz: 4, MinKernelTime: time.Millisecond,
	})
	m := p.NetModel()
	// The two-point fit must recover the simulated machine's constants.
	ref := DefaultProfile()
	relErr := func(got, want float64) float64 {
		if want == 0 {
			return got
		}
		d := (got - want) / want
		if d < 0 {
			d = -d
		}
		return d
	}
	if relErr(p.Alpha, ref.Alpha) > 0.05 {
		t.Errorf("alpha = %g, want ≈ %g", p.Alpha, ref.Alpha)
	}
	if relErr(p.Beta, ref.Beta) > 0.05 {
		t.Errorf("beta = %g, want ≈ %g", p.Beta, ref.Beta)
	}
	if m.ComputeRate != ref.ComputeRate {
		t.Errorf("compute rate = %g, want %g", m.ComputeRate, ref.ComputeRate)
	}
	if err := p.validate(); err != nil {
		t.Errorf("calibrated profile invalid: %v", err)
	}
}

func TestCandidatesDeterministicAndFeasible(t *testing.T) {
	g := grid.New(16, 12, 4)
	prof := quickProfile()
	cfg := planCfg()
	opt := SearchOptions{VaryM: true}
	a := Candidates(g, 4, cfg, prof, opt)
	b := Candidates(g, 4, cfg, prof, opt)
	if len(a) == 0 {
		t.Fatal("no candidates")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("candidate enumeration is not deterministic")
	}
	seen := map[string]bool{}
	for _, c := range a {
		if seen[c.Key()] {
			t.Fatalf("duplicate candidate %s", c.Key())
		}
		seen[c.Key()] = true
		if c.Scheme == SchemeXY {
			if c.PA > g.Nx/2 || c.PB > g.Ny/2 {
				t.Fatalf("infeasible XY candidate %s", c.Key())
			}
		} else if c.PA > g.Ny/2 || c.PB > g.Nz/2 {
			t.Fatalf("infeasible %s candidate %s", c.Scheme, c.Key())
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	g := grid.New(16, 12, 4)
	prof := quickProfile()
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
	pl := &Planner{Profile: quickProfile(), TopK: 4, PilotSteps: 2}
	p, err := pl.Plan(g, 4, planCfg())
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme != SchemeCA {
		t.Errorf("planner chose %s (%s), want the communication-avoiding scheme", p.Scheme, p)
	}
	// The planned setup must actually run.
	setup := p.Setup(planCfg())
	if setup.Alg != dycore.AlgCommAvoid {
		t.Errorf("setup algorithm = %v", setup.Alg)
	}
}

func TestPlanCacheHitAndMiss(t *testing.T) {
	g := grid.New(16, 12, 4)
	prof := quickProfile()
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
	// A re-calibrated machine must miss.
	pl2 := *pl
	pl2.Profile.Kernels.FilterRow *= 3
	if _, ok := pl.Cache.Get(pl2.cacheKey(g, 4, cfg)); ok {
		t.Fatal("cache hit for a different profile hash")
	}

	// Every other input that changes the answer must miss too: each row
	// changes one input of a planner that shares the cache with the base
	// request, and the cache must serve exactly what the same planner plans
	// uncached. On 48×24×8 with 8 ranks and M = 3 the base pick is staged
	// (ca-8x1-m3-s1, piloted over 2 steps), so every miss row moves the
	// answer. Time steps only scale values, so that row must hit.
	g8 := grid.New(48, 24, 8)
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
		Scheme: SchemeCA, PA: 2, PB: 2, M: 2, ProfileHash: "abc"}
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
					if got.Version != PlanVersion || got.Scheme != SchemeCA {
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
	// With an expensive filter, the latitude-weighted partition (RatedRows
	// at unit rates) must be predicted no slower than the uniform one.
	g := grid.New(32, 24, 6)
	prof := quickProfile()
	prof.Kernels.FilterRow /= 50 // make filtering dominate
	cfg := planCfg()
	base := Candidate{Scheme: SchemeCA, PA: 4, PB: 1, M: cfg.M}
	rows := RatedRows(g, cfg, prof, base, ones(base.PA*base.PB))
	if rows == nil {
		t.Fatal("expected a non-uniform weighted partition")
	}
	weighted := base
	weighted.RowStarts = rows
	eu := Evaluate(g, cfg, prof, base)
	ew := Evaluate(g, cfg, prof, weighted)
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

	if n := len(Candidates(g, 4, cfg, pl.Profile, pl.Search)); n != 12 {
		t.Errorf("enumerated %d candidates, want 12 (3 factorisations × {ca, ca-s1, yz, xy})", n)
	}
	ranked := pl.rank(g, 4, cfg)
	piloted := false
	for i, e := range ranked {
		key := e.Candidate.Key()
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
	if key := p.Candidate().Key(); key != "ca-4x1-m2" || p.RowStarts != nil {
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
