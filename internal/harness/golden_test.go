package harness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cadycore/internal/testutil"
)

// figuresGolden is the canonical JSON of the reproduced evaluation on
// Quick(): Figures 1, 6, 7 and 8, the ablation figure and the Section 5.3
// theory table. A series value is null where the layout is infeasible (NaN).
type figuresGolden struct {
	Figures []goldenFigure `json:"figures"`
	Theory  []TheoryRow    `json:"theory"`
}

type goldenFigure struct {
	ID     string         `json:"id"`
	Ps     []int          `json:"ps"`
	Series []goldenSeries `json:"series"`
}

type goldenSeries struct {
	Name   string     `json:"name"`
	Values []*float64 `json:"values"`
}

func goldenOf(figs []Figure, theory []TheoryRow) figuresGolden {
	out := figuresGolden{Theory: theory}
	for _, f := range figs {
		gf := goldenFigure{ID: f.ID, Ps: f.Ps}
		for _, s := range f.Series {
			gs := goldenSeries{Name: s.Name}
			for _, v := range s.Values {
				if math.IsNaN(v) {
					gs.Values = append(gs.Values, nil)
					continue
				}
				gs.Values = append(gs.Values, &v)
			}
			gf.Series = append(gf.Series, gs)
		}
		out.Figures = append(out.Figures, gf)
	}
	return out
}

// TestFiguresGolden holds the reproduced figures to testdata/figures.golden.json
// (the ablation figure over two steps):
// names, process counts and counts exactly, simulated seconds and shares to
// 1e-12 relative, infeasible cells as null. A change that moves the
// simulated clock or a count fails here naming the cell; `go test
// ./internal/harness -run TestFiguresGolden -update` re-records the file.
func TestFiguresGolden(t *testing.T) {
	if v := goldenOf([]Figure{{Series: []Series{{Values: []float64{math.NaN()}}}}}, nil).Figures[0].Series[0].Values[0]; v != nil {
		t.Fatalf("an infeasible cell encodes as %v, want null", *v)
	}
	o := Quick()
	o.Prime()
	// The fusion acts only across a step boundary, so the ablation runs two
	// steps: at one its "no fused smoothing" row is "full CA" to the bit.
	ab := Quick()
	ab.Steps = 2
	figs := append(AllFigures(o), FigureAblation(ab))
	got := goldenOf(figs, TheoryTable(o))
	path := filepath.Join("testdata", "figures.golden.json")
	if testutil.Updating() {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		//cadyvet:volatile regenerates a checked-in test fixture; no crash recovery reads it
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want figuresGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Figures) != len(want.Figures) {
		t.Fatalf("%d figures, golden has %d", len(got.Figures), len(want.Figures))
	}
	for fi, gf := range got.Figures {
		wf := want.Figures[fi]
		if gf.ID != wf.ID || !equalInts(gf.Ps, wf.Ps) || len(gf.Series) != len(wf.Series) {
			t.Errorf("figure %d: %s over p=%v with %d series, golden %s over p=%v with %d",
				fi, gf.ID, gf.Ps, len(gf.Series), wf.ID, wf.Ps, len(wf.Series))
			continue
		}
		for si, gs := range gf.Series {
			ws := wf.Series[si]
			if gs.Name != ws.Name || len(gs.Values) != len(ws.Values) {
				t.Errorf("%s series %d: %q with %d values, golden %q with %d", gf.ID, si, gs.Name, len(gs.Values), ws.Name, len(ws.Values))
				continue
			}
			for pi, v := range gs.Values {
				if w := ws.Values[pi]; !closeOrBothNull(v, w) {
					t.Errorf("%s %q at p=%d: %s, golden %s", gf.ID, gs.Name, gf.Ps[pi], cell(v), cell(w))
				}
			}
		}
	}
	if len(got.Theory) != len(want.Theory) {
		t.Fatalf("%d theory rows, golden has %d", len(got.Theory), len(want.Theory))
	}
	for i, g := range got.Theory {
		w := want.Theory[i]
		exact := g.P == w.P && g.Alg == w.Alg && g.BytesMeasured == w.BytesMeasured &&
			g.CollectivesMeasured == w.CollectivesMeasured && g.ExchangesMeasured == w.ExchangesMeasured
		if !exact || !close12(g.WModel, w.WModel) || !close12(g.SModel, w.SModel) || !close12(g.WBound, w.WBound) {
			t.Errorf("theory row %d: %+v, golden %+v", i, g, w)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// close12 reports whether a equals b to 1e-12 relative.
func close12(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

func closeOrBothNull(a, b *float64) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return close12(*a, *b)
}

func cell(v *float64) string {
	if v == nil {
		return "null (infeasible)"
	}
	b, _ := json.Marshal(*v)
	return string(b)
}
