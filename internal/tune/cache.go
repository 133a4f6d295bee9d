//cadyvet:persistence the plan cache survives restarts; writes go through checkpoint.WriteFileAtomic
package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cadycore/internal/checkpoint"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/operators"
)

// Cache is the on-disk plan memo: one JSON file per (mesh, procs, config,
// profile) key, written atomically (temp + rename) so concurrent planners —
// multiple jobs in the service, or parallel cadytune invocations sharing a
// directory — never read a torn plan and last-writer-wins is safe.
type Cache struct {
	dir string
}

// NewCache opens (creating if needed at first Put) a plan cache directory.
func NewCache(dir string) *Cache { return &Cache{dir: dir} }

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its file. Keys are produced by Planner.cacheKey and are
// already filesystem-safe.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the memoized plan for the key, if present and well-formed: of
// this PlanVersion, with a scheme that decodes to an algorithm a plan can
// state (a 3-D grid's third extent has no field).
func (c *Cache) Get(key string) (Plan, bool) {
	if c == nil {
		return Plan{}, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return Plan{}, false
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil || p.Version != PlanVersion || p.Scheme == dycore.AlgBaseline3D {
		return Plan{}, false
	}
	return p, true
}

// Put memoizes a plan under the key.
func (c *Cache) Put(key string, p Plan) error {
	if c == nil {
		return nil
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: marshal plan: %w", err)
	}
	data = append(data, '\n')
	if err := checkpoint.MkdirDurable(c.dir); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(c.path(key), data)
}

// cacheKey builds the cache key of a planning request from every Planner
// input that can change the answer: the mesh, the rank budget, the search
// space, the pilot width and length, the profile, and the config. The time
// steps and the smoothing and adaptation coefficients are left out: they
// scale values, never work counts or messages, so neither the analytic
// estimate nor the pilot's simulated clock can see them. The readable prefix
// names the request; the first hash covers the rest, the second is the
// profile's.
func (pl *Planner) cacheKey(g *grid.Grid, procs int, cfg dycore.Config) string {
	cfg.Dt1, cfg.Dt2, cfg.Beta, cfg.Adapt = 0, 0, 0, operators.AdaptConfig{}
	data, err := json.Marshal(struct {
		Cfg              dycore.Config
		Search           SearchOptions
		TopK, PilotSteps int
	}{cfg, pl.Search, pl.topK(), pl.pilotSteps()})
	if err != nil {
		panic(fmt.Sprintf("tune: plan key: %v", err))
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("plan-%dx%dx%d-p%d-m%d-%s-%s", g.Nx, g.Ny, g.Nz, procs, cfg.M,
		hex.EncodeToString(sum[:4]), pl.Profile.Hash())
}
