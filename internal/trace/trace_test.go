package trace

import (
	"math"
	"strings"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
)

func TestRenderSyntheticEvents(t *testing.T) {
	m := comm.NetModel{Latency: 1e-3, ByteTime: 0, SendOverhead: 1e-4, ComputeRate: 1000}
	w := comm.NewWorld(2, m)
	rec := w.EnableTrace()
	w.Run(func(c *comm.Comm) {
		c.SetCategory(comm.CatStencil)
		if c.Rank() == 0 {
			c.Compute(2) // 2 ms of compute
			c.Send(1, 0, []float64{1})
		} else {
			c.RecvInto(0, 0, make([]float64, 1)) // waits ~3 ms
			c.Compute(1)
		}
	})
	tl := Render(rec, 40)
	if len(tl.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(tl.Rows))
	}
	if !strings.Contains(tl.Rows[0], "#") {
		t.Error("rank 0 shows no compute")
	}
	if !strings.Contains(tl.Rows[0], "s") {
		t.Error("rank 0 shows no stencil send")
	}
	if !strings.Contains(tl.Rows[1], "s") {
		t.Error("rank 1 shows no stencil wait")
	}
	// Rank 1 waits while rank 0 computes: its row starts with comm.
	if tl.Rows[1][0] != 's' {
		t.Errorf("rank 1 row should start with a wait, got %q", tl.Rows[1][:5])
	}
	if !strings.Contains(tl.Format(), "rank   0") {
		t.Error("Format lacks rank labels")
	}
}

func TestRenderEmpty(t *testing.T) {
	w := comm.NewWorld(1, comm.Zero())
	rec := w.EnableTrace()
	w.Run(func(c *comm.Comm) {})
	tl := Render(rec, 40)
	if tl.T1 != 0 {
		t.Errorf("empty trace has T1 = %v", tl.T1)
	}
	if out := tl.Format(); !strings.Contains(out, "no events") {
		t.Errorf("empty format = %q", out)
	}
}

func TestUtilizationSumsToOne(t *testing.T) {
	m := comm.NetModel{Latency: 1e-3, ByteTime: 0, SendOverhead: 1e-4, ComputeRate: 1000}
	w := comm.NewWorld(2, m)
	rec := w.EnableTrace()
	w.Run(func(c *comm.Comm) {
		c.Compute(float64(1 + c.Rank()))
		c.Allgather([]float64{0}, make([]float64, c.Size()))
	})
	u := Utilization(rec)
	sum := u["compute"] + u["comm"] + u["idle"]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("utilization sums to %v", sum)
	}
	if u["compute"] <= 0 {
		t.Error("no compute recorded")
	}
}

func TestDycoreTimelineShowsAlgorithmStructure(t *testing.T) {
	// The CA timeline must show z-collectives and stencil exchanges; the
	// X-Y baseline must show x-collectives and no z-collectives.
	g := grid.New(16, 10, 4)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	cfg.Dt1, cfg.Dt2 = 30, 180

	_, rec := dycore.RunWithOpts(dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg},
		g, comm.TianheLike(), heldsuarez.InitialState, 1, dycore.RunOpts{Traced: true})
	tl := Render(rec, 120)
	joined := strings.Join(tl.Rows, "")
	if !strings.Contains(joined, "z") || !strings.Contains(joined, "s") || !strings.Contains(joined, "#") {
		t.Errorf("CA timeline missing expected glyphs:\n%s", tl.Format())
	}
	if strings.Contains(joined, "x") {
		t.Error("CA timeline shows x-collectives (p_x = 1 must make F̃ local)")
	}

	_, rec2 := dycore.RunWithOpts(dycore.Setup{Alg: dycore.AlgBaselineXY, PA: 2, PB: 2, Cfg: cfg},
		g, comm.TianheLike(), heldsuarez.InitialState, 1, dycore.RunOpts{Traced: true})
	tl2 := Render(rec2, 120)
	joined2 := strings.Join(tl2.Rows, "")
	if !strings.Contains(joined2, "x") {
		t.Errorf("X-Y timeline shows no x-collectives:\n%s", tl2.Format())
	}
	if strings.Contains(joined2, "z") {
		t.Error("X-Y timeline shows z-collectives (p_z = 1 must make Ĉ local)")
	}
}

func TestResetDropsSetupEvents(t *testing.T) {
	m := comm.NetModel{Latency: 1e-3, ByteTime: 0, SendOverhead: 1e-4, ComputeRate: 1000}
	w := comm.NewWorld(2, m)
	rec := w.EnableTrace()
	w.Run(func(c *comm.Comm) {
		c.Compute(5) // setup work
		c.ResetStats()
		c.Compute(1)
	})
	for _, e := range rec.Events() {
		if e.T1 > 1.1e-3 {
			t.Errorf("pre-reset event survived: %+v", e)
		}
	}
}
