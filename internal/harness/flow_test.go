package harness

import (
	"fmt"
	"strings"
	"testing"

	"cadycore/internal/dycore"
)

// TestFlowReproducesPaperCounts: the counts `-fig flow` prints are the runs'
// own, and they are the paper's §4.1 arithmetic for M ∈ {1, 2, 3}: Y-Z runs
// 3M+4 exchange rounds and 3M z sums per step, CA 2 and 2M, and X-Y 3M+4
// rounds and a forward and a back transpose for each of its 3M+3 filterings.
// At M = 3 that is the paper's 13 -> 2 and 9 -> 6, and 24 transposes.
func TestFlowReproducesPaperCounts(t *testing.T) {
	for _, m := range []int{1, 2, 3} {
		o := Quick()
		o.M = m
		o.Ps = []int{8}
		o.Prime()
		want := map[string][2]int64{
			dycore.AlgBaselineXY.String(): {int64(3*m + 4), int64(2 * (3*m + 3))},
			dycore.AlgBaselineYZ.String(): {int64(3*m + 4), int64(3 * m)},
			dycore.AlgCommAvoid.String():  {2, int64(2 * m)},
		}
		rows := TheoryTable(o)
		if len(rows) != len(want) {
			t.Fatalf("M=%d: %d theory rows at p = 8, want %d", m, len(rows), len(want))
		}
		for _, r := range rows {
			c := o.perStep(r)
			if w := want[r.Alg]; c.exchanges != w[0] || c.collectives != w[1] || c.entering == 0 {
				t.Errorf("M=%d %s: %d exchanges and %d collectives on %d ranks per step, want %d and %d",
					m, r.Alg, c.exchanges, c.collectives, c.entering, w[0], w[1])
			}
		}
		flow, err := Flow(o)
		if err != nil {
			t.Fatal(err)
		}
		summary := fmt.Sprintf("exchange rounds: %d -> 2; z-collectives: %d -> %d", 3*m+4, 3*m, 2*m)
		for _, s := range []string{word(m), summary} {
			if !strings.Contains(flow, s) {
				t.Errorf("M=%d: flow missing %q:\n%s", m, s, flow)
			}
		}
	}
	if got := word(3); got != "S (FL)^3 (FCA)^9" {
		t.Errorf("word(3) = %q", got)
	}
}
