package tune

import (
	"math"
	"sort"
	"testing"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
)

// TestStagedCandidatesEnumeratedAndRanked drives the staged-exchange axis on
// the paper-scale mesh: on 192×96×24 with 8 ranks the enumeration must offer
// communication-avoiding candidates at every stage depth 0 < s < M, the
// analytic model must price them all finitely, and the overlap-aware ranking
// must order them deterministically alongside the full-depth variants.
func TestStagedCandidatesEnumeratedAndRanked(t *testing.T) {
	g := grid.New(192, 96, 24)
	prof := DefaultProfile()
	cfg := planCfg()
	cfg.M = 3 // the paper's experiments: stages s ∈ {1, 2} beside full depth

	cands := Candidates(g, 8, cfg, prof, SearchOptions{})
	staged := map[int]int{}
	for _, c := range cands {
		if c.Alg == dycore.AlgCommAvoid && c.Cfg.StageM > 0 {
			if c.Cfg.StageM >= c.Cfg.M {
				t.Fatalf("candidate %s stages at s >= M", Key(c))
			}
			staged[c.Cfg.StageM]++
		}
	}
	for s := 1; s < cfg.M; s++ {
		if staged[s] == 0 {
			t.Errorf("no staged candidate with stage depth %d enumerated", s)
		}
	}

	type ranked struct {
		c dycore.Setup
		e Estimate
	}
	var rs []ranked
	for _, c := range cands {
		e := Evaluate(g, prof, c)
		if math.IsNaN(e.Total) || math.IsInf(e.Total, 0) || e.Total <= 0 {
			t.Fatalf("candidate %s priced at %g", Key(c), e.Total)
		}
		rs = append(rs, ranked{c, e})
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].e.Total != rs[j].e.Total {
			return rs[i].e.Total < rs[j].e.Total
		}
		return Key(rs[i].c) < Key(rs[j].c)
	})

	// The staged variants must be genuinely priced (not aliased to the
	// full-depth estimate): find a CA layout and compare.
	differs := false
	for _, r := range rs {
		if r.c.Alg != dycore.AlgCommAvoid || r.c.Cfg.StageM == 0 || r.c.RowStarts != nil {
			continue
		}
		full := r.c
		full.Cfg.StageM = 0
		fe := Evaluate(g, prof, full)
		if fe.Total != r.e.Total {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("every staged estimate equals its full-depth estimate; the stage axis is dead in the model")
	}

	// A staged candidate appears in the ranking, and plans round-trip its
	// depth.
	for _, r := range rs {
		if r.c.Alg == dycore.AlgCommAvoid && r.c.Cfg.StageM > 0 {
			p := planFrom(g, 8, r.e, prof)
			if p.Stage != r.c.Cfg.StageM {
				t.Errorf("plan lost the stage depth: got %d, want %d", p.Stage, r.c.Cfg.StageM)
			}
			if got := p.Setup(cfg); Key(got) != Key(r.c) {
				t.Errorf("plan round-trip changed the candidate: %s vs %s", Key(got), Key(r.c))
			}
			break
		}
	}

	// NoStaged prunes the axis completely.
	for _, c := range Candidates(g, 8, cfg, prof, SearchOptions{NoStaged: true}) {
		if stage(c) != 0 {
			t.Fatalf("NoStaged enumeration produced staged candidate %s", Key(c))
		}
	}
}
