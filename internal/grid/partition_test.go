package grid

import (
	"math"
	"testing"
)

func TestUniformRowStarts(t *testing.T) {
	starts := UniformRowStarts(10, 4)
	want := []int{0, 2, 5, 7, 10}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("UniformRowStarts(10,4) = %v, want %v", starts, want)
		}
	}
}

func TestPolarRows(t *testing.T) {
	g := New(16, 10, 4)
	active := g.PolarRows(60)
	// Symmetric about the equator.
	for j := 0; j < g.Ny; j++ {
		if active[j] != active[g.Ny-1-j] {
			t.Fatalf("PolarRows not symmetric: %v", active)
		}
	}
	// Rows poleward of the cutoff are active, equatorial rows are not.
	sinc := math.Sin(30 * math.Pi / 180)
	for j := 0; j < g.Ny; j++ {
		want := g.SinC[j] < sinc
		if active[j] != want {
			t.Fatalf("row %d: active=%v want %v", j, active[j], want)
		}
	}
	if active[0] != true || active[g.Ny/2] != false {
		t.Fatalf("expected polar active / equator inactive: %v", active)
	}
}
