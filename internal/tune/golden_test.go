package tune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/testutil"
)

// goldenCase is one planning request of testdata/golden_plans.json: the
// ordered candidate keys, each candidate's Evaluate total (formatted with
// strconv's shortest round-trip form, so equal strings are equal bits), and
// the indented Plan JSON at each pilot width. The file was written by the
// planner as it stood before candidates became dycore.Setups.
type goldenCase struct {
	Mesh   [3]int   `json:"mesh"`
	Procs  int      `json:"procs"`
	M      int      `json:"m"`
	Search string   `json:"search"`
	Keys   []string `json:"keys"`
	Totals []string `json:"totals"`
	Plans  []struct {
		TopK int    `json:"topk"`
		Plan string `json:"plan"`
	} `json:"plans"`
}

// TestGoldenPlans holds the planner bitwise: for 48×24×8, 96×48×12 and
// 192×96×24, P ∈ {4, 8}, M ∈ {2, 3}, default, no-staged and vary-m search,
// the enumeration order, every analytic total and the Plan JSON at TopK 2, 4
// and −1 (one pilot step) must match the recorded bytes. Under -race only
// the analytic plans run (raceEnabled). -update (without -race) rewrites
// the file with what the planner now returns for the recorded requests.
func TestGoldenPlans(t *testing.T) {
	path := filepath.Join("testdata", "golden_plans.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(b, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) != 36 {
		t.Fatalf("%d golden cases, want 36", len(cases))
	}
	search := map[string]SearchOptions{"default": {}, "no-staged": {NoStaged: true}, "vary-m": {VaryM: true}}
	prof := DefaultProfile()
	update := testutil.Updating()
	for i := range cases {
		gc := &cases[i]
		name := strings.Join([]string{strconv.Itoa(gc.Mesh[0]), strconv.Itoa(gc.Procs), strconv.Itoa(gc.M), gc.Search}, "/")
		t.Run(name, func(t *testing.T) {
			g := grid.New(gc.Mesh[0], gc.Mesh[1], gc.Mesh[2])
			cfg := dycore.DefaultConfig()
			cfg.M = gc.M
			opt, ok := search[gc.Search]
			if !ok {
				t.Fatalf("unknown search %q", gc.Search)
			}
			var keys, totals []string
			for _, c := range Candidates(g, gc.Procs, cfg, prof, opt) {
				keys = append(keys, Key(c))
				totals = append(totals, strconv.FormatFloat(Evaluate(g, prof, c).Total, 'g', -1, 64))
			}
			if update {
				gc.Keys, gc.Totals = keys, totals
			}
			if strings.Join(keys, " ") != strings.Join(gc.Keys, " ") {
				t.Errorf("candidates %v, want %v", keys, gc.Keys)
			}
			if strings.Join(totals, " ") != strings.Join(gc.Totals, " ") {
				t.Errorf("totals %v, want %v", totals, gc.Totals)
			}
			for j := range gc.Plans {
				gp := &gc.Plans[j]
				if gp.TopK > 0 && raceEnabled {
					continue
				}
				pl := &Planner{Profile: prof, Search: opt, TopK: gp.TopK, PilotSteps: 1}
				p, err := pl.Plan(g, gc.Procs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := json.MarshalIndent(p, "", "  ")
				if update {
					gp.Plan = string(got)
				}
				if string(got) != gp.Plan {
					t.Errorf("topk %d: plan\n%s\nwant\n%s", gp.TopK, got, gp.Plan)
				}
			}
		})
	}
	if update {
		out, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		testutil.Golden(t, path, string(out)+"\n")
	}
}

// TestPlanCacheReplansUnknownScheme: a memo whose scheme is no algorithm
// name, or 3d (a plan has no field for the third extent), is a cache miss,
// re-planned and overwritten — such a memo used to decode, run as YZ and be
// served forever.
func TestPlanCacheReplansUnknownScheme(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := planCfg()
	for _, scheme := range []string{"zz", "3d"} {
		t.Run(scheme, func(t *testing.T) {
			pl := servicePlanner()
			pl.Cache = NewCache(t.TempDir())
			want, err := pl.Plan(g, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := pl.cacheKey(g, 4, cfg)
			path := filepath.Join(pl.Cache.Dir(), key+".json")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := strings.Replace(string(b), `"scheme": "ca"`, `"scheme": "`+scheme+`"`, 1)
			if bad == string(b) {
				t.Fatalf("memo has no ca scheme to corrupt:\n%s", b)
			}
			//cadyvet:volatile plants a corrupt memo for the cache to reject; it never needs to survive a crash
			if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			if p, ok := pl.Cache.Get(key); ok {
				t.Fatalf("cache served a plan with scheme %q: %+v", scheme, p)
			}
			got, err := pl.Plan(g, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("re-plan %s, want %s", got, want)
			}
			if after, err := os.ReadFile(path); err != nil || string(after) != string(b) {
				t.Errorf("re-plan did not overwrite the corrupt memo (err %v):\n%s", err, after)
			}
		})
	}
}
