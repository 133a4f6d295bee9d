package opflow

import (
	"strings"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
)

func TestStepWordStructure(t *testing.T) {
	// (FCA)^{3M} (FL)^3 S: with M = 3 the word has 9·3 + 3·2 + 1 = 34 ops.
	w := StepWord(3)
	if len(w) != 34 {
		t.Fatalf("word length %d, want 34", len(w))
	}
	counts := map[Op]int{}
	for _, op := range w {
		counts[op]++
	}
	if counts[OpA] != 9 || counts[OpC] != 9 || counts[OpL] != 3 || counts[OpS] != 1 {
		t.Errorf("operator counts %v", counts)
	}
	// F follows every A·C and every L: 9 + 3 applications.
	if counts[OpF] != 12 {
		t.Errorf("F count %d, want 12", counts[OpF])
	}
	if got := FormatWord(3); got != "S (FL)^3 (FCA)^9" {
		t.Errorf("FormatWord = %q", got)
	}
}

func TestOperatorKinds(t *testing.T) {
	// Each operator involves exactly one kind of communication (Section 4.1).
	if OpA.Kind() != CommStencil || OpL.Kind() != CommStencil || OpS.Kind() != CommStencil {
		t.Error("stencil operators misclassified")
	}
	if OpC.Kind() != CommCollectiveZ {
		t.Error("C must be the z collective")
	}
	if OpF.Kind() != CommCollectiveX {
		t.Error("F must be the x collective")
	}
}

func TestProfilesReproducePaperCounts(t *testing.T) {
	// Section 5.2: "the new strategy reduces the communication frequency
	// from 13 to 2 in each iterative step (M = 3)"; Section 4.2.2: Ĉ runs
	// 2M instead of 3M times.
	yz := ProfileOf(StrategyOriginalYZ, 3)
	if yz.Exchanges != 13 {
		t.Errorf("original-YZ exchanges = %d, want 13", yz.Exchanges)
	}
	if yz.CollectivesZ != 9 || yz.CollectivesX != 0 {
		t.Errorf("original-YZ collectives = %d/%d, want 9/0", yz.CollectivesZ, yz.CollectivesX)
	}
	xy := ProfileOf(StrategyOriginalXY, 3)
	if xy.Exchanges != 13 || xy.CollectivesZ != 0 || xy.CollectivesX != 12 {
		t.Errorf("original-XY profile %+v", xy)
	}
	ca := ProfileOf(StrategyCommAvoiding, 3)
	if ca.Exchanges != 2 || ca.CollectivesZ != 6 || ca.CollectivesX != 0 {
		t.Errorf("comm-avoiding profile %+v", ca)
	}
}

func TestProfileMatchesImplementationCounters(t *testing.T) {
	// The symbolic profile must agree with what the real integrators
	// actually execute (measured by their counters).
	g := grid.New(16, 10, 4)
	for _, m := range []int{1, 2, 3} {
		cfg := dycore.DefaultConfig()
		cfg.M = m
		cfg.Dt1, cfg.Dt2 = 30, 180
		steps := 2

		yz := dycore.Run(dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg},
			g, comm.Zero(), heldsuarez.InitialState, steps)
		prof := ProfileOf(StrategyOriginalYZ, m)
		// Counters include 1 bootstrap exchange and 1 bootstrap Ĉ.
		if got := (yz.Count.HaloExchanges - 1) / int64(steps); got != int64(prof.Exchanges) {
			t.Errorf("M=%d: YZ exchanges/step %d, profile says %d", m, got, prof.Exchanges)
		}
		if got := (yz.Count.CEvaluations - 1) / int64(steps); got != int64(prof.CollectivesZ) {
			t.Errorf("M=%d: YZ collectives/step %d, profile says %d", m, got, prof.CollectivesZ)
		}

		ca := dycore.Run(dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg},
			g, comm.Zero(), heldsuarez.InitialState, steps)
		profCA := ProfileOf(StrategyCommAvoiding, m)
		// CA counters include 1 bootstrap exchange, 1 bootstrap Ĉ, and 1
		// Finalize exchange.
		if got := (ca.Count.HaloExchanges - 2) / int64(steps); got != int64(profCA.Exchanges) {
			t.Errorf("M=%d: CA exchanges/step %d, profile says %d", m, got, profCA.Exchanges)
		}
		if got := (ca.Count.CEvaluations - 1) / int64(steps); got != int64(profCA.CollectivesZ) {
			t.Errorf("M=%d: CA collectives/step %d, profile says %d", m, got, profCA.CollectivesZ)
		}
	}
}

func TestAdviseChoosesYZAtPaperScale(t *testing.T) {
	// At the paper's mesh, filtering dominates: Y-Z is the right choice.
	a, err := Advise(720, 360, 30, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !a.UseYZ {
		t.Errorf("advisor chose X-Y at the paper's scale: %s", a.Reason)
	}
	if a.FilterBound <= 0 || a.SumBound <= 0 {
		t.Errorf("degenerate bounds: %+v", a)
	}
}

func TestAdviseSerialFilterFree(t *testing.T) {
	// With p small enough to fit entirely along y, the filter bound can be
	// zero only when p_x = 1 — Advise never recommends X-Y then.
	a, err := Advise(128, 64, 16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !a.UseYZ {
		t.Errorf("small-p advice should still prefer Y-Z: %s", a.Reason)
	}
}

// TestAdviseNamesMissingLayout: Advise prices only layouts that exist. On
// 48×24×8, 64 ranks fit an X-Y layout (8×8) but no Y-Z one (p_z ≤ 4 needs
// p_y ≥ 16 > 12), and 100000 ranks fit neither.
func TestAdviseNamesMissingLayout(t *testing.T) {
	for p, want := range map[int]string{
		64:     "opflow: no Y-Z (p_y <= 12, p_z <= 4) layout of 64 ranks fits 48x24x8",
		100000: "opflow: no X-Y (p_x <= 24, p_y <= 12) or Y-Z (p_y <= 12, p_z <= 4) layout of 100000 ranks fits 48x24x8",
	} {
		if a, err := Advise(48, 24, 8, p, 2); err == nil || err.Error() != want {
			t.Errorf("p = %d: advice %q, error %v, want %q", p, a.Reason, err, want)
		}
	}
}

func TestDescribeMentionsKeyNumbers(t *testing.T) {
	d := Describe(3)
	for _, want := range []string{"S (FL)^3 (FCA)^9", "13 -> 2", "9 -> 6"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe(3) missing %q:\n%s", want, d)
		}
	}
}
