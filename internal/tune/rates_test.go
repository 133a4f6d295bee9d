package tune

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cadycore/internal/grid"
)

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func maxChunk(weights []float64, starts []int) float64 {
	m := 0.0
	for p := 0; p+1 < len(starts); p++ {
		s := 0.0
		for j := starts[p]; j < starts[p+1]; j++ {
			s += weights[j]
		}
		if s > m {
			m = s
		}
	}
	return m
}

// bruteOpt finds the optimal max-chunk weight by exhaustive recursion.
func bruteOpt(weights []float64, from, parts, minRows int) float64 {
	ny := len(weights)
	if parts == 1 {
		if ny-from < minRows {
			return math.MaxFloat64
		}
		s := 0.0
		for j := from; j < ny; j++ {
			s += weights[j]
		}
		return s
	}
	best := math.MaxFloat64
	chunk := 0.0
	for j := from + 1; j+(parts-1)*minRows <= ny; j++ {
		chunk += weights[j-1]
		if j-from < minRows {
			continue
		}
		rest := bruteOpt(weights, j, parts-1, minRows)
		if c := math.Max(chunk, rest); c < best {
			best = c
		}
	}
	return best
}

// TestRatedRowStartsUnitRates pins the partition DP with unit column
// multipliers — the plain min-max weighted partition. Every row is checked
// for structure (full span, ≥ minRows per chunk), determinism, and being no
// worse than the uniform split; small inputs additionally against the
// brute-force optimum, and two against their exact boundary vector.
func TestRatedRowStartsUnitRates(t *testing.T) {
	// The planner's real row-weight shape — a flat stencil cost with a
	// large filter surcharge on the polar thirds — once made an
	// epsilon-slopped reconstruction emit a non-increasing boundary vector
	// for 96 rows into 8 chunks.
	polar96 := ones(96)
	for j := range polar96 {
		if j < 32 || j >= 64 {
			polar96[j] += 17.3
		}
	}
	type input struct {
		name           string
		weights        []float64
		parts, minRows int
		brute          bool
		want           []int
	}
	inputs := []input{
		{name: "polar-skewed", weights: []float64{5, 5, 1, 1, 1, 1, 1, 1, 5, 5}, parts: 3, minRows: 2, brute: true, want: []int{0, 2, 8, 10}},
		{name: "uniform-weights", weights: ones(12), parts: 4, minRows: 2, brute: true, want: []int{0, 3, 6, 9, 12}},
		{name: "one-huge-row", weights: []float64{100, 1, 1, 1, 1, 1, 1, 1}, parts: 3, minRows: 2, brute: true},
		{name: "polar-96x8", weights: polar96, parts: 8, minRows: 2},
	}
	for i, weights := range [][]float64{
		{5, 5, 1, 1, 1, 1, 1, 1, 5, 5},
		{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8},
		{0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0, 7, 0, 0},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	} {
		for parts := 2; parts <= 4; parts++ {
			for minRows := 1; minRows <= 2; minRows++ {
				inputs = append(inputs, input{name: fmt.Sprintf("sweep%d-p%d-r%d", i, parts, minRows), weights: weights, parts: parts, minRows: minRows, brute: true})
			}
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			ny := len(in.weights)
			starts := RatedRowStarts(in.weights, ones(in.parts), in.minRows)
			if len(starts) != in.parts+1 || starts[0] != 0 || starts[in.parts] != ny {
				t.Fatalf("bad span: %v", starts)
			}
			for p := 0; p < in.parts; p++ {
				if starts[p+1]-starts[p] < in.minRows {
					t.Fatalf("chunk %d below minRows=%d: %v", p, in.minRows, starts)
				}
			}
			if again := RatedRowStarts(in.weights, ones(in.parts), in.minRows); !reflect.DeepEqual(starts, again) {
				t.Errorf("non-deterministic: %v vs %v", starts, again)
			}
			got := maxChunk(in.weights, starts)
			if uni := maxChunk(in.weights, grid.UniformRowStarts(ny, in.parts)); got > uni {
				t.Errorf("max chunk %v worse than uniform %v (starts %v)", got, uni, starts)
			}
			if in.brute {
				if want := bruteOpt(in.weights, 0, in.parts, in.minRows); got != want {
					t.Errorf("max chunk %v, optimum %v (starts %v)", got, want, starts)
				}
			}
			if in.want != nil && !reflect.DeepEqual(starts, in.want) {
				t.Errorf("starts %v, want %v", starts, in.want)
			}
		})
	}
}

func TestRatedRowStartsPanicsOnInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("3 chunks of ≥ 2 rows out of 5 rows must panic")
		}
	}()
	RatedRowStarts(ones(5), ones(3), 2)
}
