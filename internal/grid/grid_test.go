package grid

import (
	"math"
	"strings"
	"testing"
)

func TestNewBasicGeometry(t *testing.T) {
	g := New(16, 10, 4)
	if g.Nx != 16 || g.Ny != 10 || g.Nz != 4 {
		t.Fatalf("dims: %+v", g)
	}
	if math.Abs(g.DLambda-2*math.Pi/16) > 1e-15 {
		t.Errorf("DLambda = %v", g.DLambda)
	}
	if math.Abs(g.DTheta-math.Pi/10) > 1e-15 {
		t.Errorf("DTheta = %v", g.DTheta)
	}
}

func TestCentersAvoidPoles(t *testing.T) {
	g := New(16, 9, 3)
	for j, th := range g.ThetaC {
		if th <= 0 || th >= math.Pi {
			t.Errorf("center %d at colatitude %v touches a pole", j, th)
		}
		if g.SinC[j] <= 0 {
			t.Errorf("sinθ at center %d is %v", j, g.SinC[j])
		}
	}
}

func TestInterfacesIncludePoles(t *testing.T) {
	g := New(16, 10, 4)
	if g.ThetaI[0] != 0 || g.SinI[0] != 0 || g.CosI[0] != 1 {
		t.Errorf("north pole interface wrong: θ=%v sin=%v cos=%v", g.ThetaI[0], g.SinI[0], g.CosI[0])
	}
	last := g.Ny
	if math.Abs(g.ThetaI[last]-math.Pi) > 1e-12 || g.SinI[last] != 0 || g.CosI[last] != -1 {
		t.Errorf("south pole interface wrong")
	}
}

func TestSigmaLayers(t *testing.T) {
	g := New(16, 10, 5)
	if g.SigmaI[0] != 0 || g.SigmaI[5] != 1 {
		t.Errorf("σ interfaces must run 0..1: %v", g.SigmaI)
	}
	sum := 0.0
	for k, ds := range g.DSigma {
		if ds <= 0 {
			t.Errorf("Δσ[%d] = %v not positive", k, ds)
		}
		sum += ds
		if g.Sigma[k] <= g.SigmaI[k] || g.Sigma[k] >= g.SigmaI[k+1] {
			t.Errorf("mid-level %d (%v) outside its layer", k, g.Sigma[k])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σ Δσ = %v, want 1", sum)
	}
}

func TestNonuniformSigma(t *testing.T) {
	g := NewWithSigma(16, 10, []float64{0, 0.1, 0.3, 0.6, 1})
	if g.Nz != 4 {
		t.Fatalf("Nz = %d", g.Nz)
	}
	if math.Abs(g.DSigma[2]-0.3) > 1e-15 {
		t.Errorf("Δσ[2] = %v", g.DSigma[2])
	}
}

func TestBadSigmaPanics(t *testing.T) {
	for _, bad := range [][]float64{
		{0, 0.5, 0.4, 1}, // not increasing
		{0.1, 0.5, 1},    // not starting at 0
		{0, 0.5, 0.9},    // not ending at 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("σ=%v should panic", bad)
				}
			}()
			NewWithSigma(16, 10, bad)
		}()
	}
}

// TestTooSmallPanics: New panics with exactly the error Check returns, so an
// entry point that calls Check first never reaches the panic.
func TestTooSmallPanics(t *testing.T) {
	if err := Check(8, 5, 2); err != nil {
		t.Errorf("Check(8, 5, 2) = %v, want nil", err)
	}
	for _, dims := range [][3]int{{4, 10, 4}, {16, 3, 4}, {16, 10, 1}, {0, 10, 4}, {16, 10, 0}, {16, 10, -3}} {
		err := Check(dims[0], dims[1], dims[2])
		if err == nil {
			t.Errorf("Check%v = nil, want an error", dims)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Errorf("New%v panicked with %v, want %q", dims, r, err)
				}
			}()
			New(dims[0], dims[1], dims[2])
		}()
	}
}

func TestTotalAreaApproachesSphere(t *testing.T) {
	sphere := 4 * math.Pi * earthRadius * earthRadius
	for _, ny := range []int{10, 40, 160} {
		g := New(2*ny, ny, 2)
		total := 0.0
		for j := 0; j < g.Ny; j++ {
			total += g.CellArea(j) * float64(g.Nx)
		}
		rel := math.Abs(total-sphere) / sphere
		// The midpoint rule on sinθ converges quadratically.
		if rel > 2.5/float64(ny*ny) {
			t.Errorf("ny=%d: area error %v too large", ny, rel)
		}
	}
}

func TestLatitudeDeg(t *testing.T) {
	g := New(16, 10, 4)
	if l := g.LatitudeDeg(0); l <= 80 || l >= 90 {
		t.Errorf("row 0 latitude %v not near the north pole", l)
	}
	if l := g.LatitudeDeg(9); l >= -80 || l <= -90 {
		t.Errorf("row 9 latitude %v not near the south pole", l)
	}
	// Symmetry: row j and Ny−1−j mirror.
	for j := 0; j < 5; j++ {
		if d := g.LatitudeDeg(j) + g.LatitudeDeg(9-j); math.Abs(d) > 1e-12 {
			t.Errorf("latitude asymmetry at %d: %v", j, d)
		}
	}
}

func TestPointsAndString(t *testing.T) {
	g := New(16, 10, 4)
	if s := g.String(); !strings.HasPrefix(s, "grid 16x10x4 ") {
		t.Errorf("String() = %q, want the 16x10x4 point extents first", s)
	}
}

func TestStretchedSigma(t *testing.T) {
	s := StretchedSigmaInterfaces(10, 1.6)
	g := NewWithSigma(16, 10, s)
	// Layers get thinner toward the surface (σ → 1): Δσ decreasing with k.
	for k := 1; k < g.Nz; k++ {
		if g.DSigma[k] >= g.DSigma[k-1] {
			t.Fatalf("stretched layers not monotone at k=%d: %v vs %v", k, g.DSigma[k], g.DSigma[k-1])
		}
	}
	// stretch = 1 is uniform.
	u := StretchedSigmaInterfaces(8, 1)
	for k := 0; k <= 8; k++ {
		if math.Abs(u[k]-float64(k)/8) > 1e-12 {
			t.Fatalf("stretch=1 not uniform at %d", k)
		}
	}
	// Invalid stretch panics.
	defer func() {
		if recover() == nil {
			t.Error("stretch ≤ 0 should panic")
		}
	}()
	StretchedSigmaInterfaces(8, 0)
}

func TestNonuniformSigmaRunsStable(t *testing.T) {
	// A stretched grid must work through the full construction path.
	g := NewWithSigma(32, 16, StretchedSigmaInterfaces(12, 1.5))
	if g.Nz != 12 {
		t.Fatalf("Nz = %d", g.Nz)
	}
	sum := 0.0
	for _, ds := range g.DSigma {
		sum += ds
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σ Δσ = %v", sum)
	}
}
