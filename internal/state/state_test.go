package state

import (
	"math"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
)

func testGrid() *grid.Grid { return grid.New(16, 10, 4) }

func testBlock(g *grid.Grid) field.Block {
	return field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
}

func TestNewZeroState(t *testing.T) {
	st := New(testBlock(testGrid()))
	if !st.AllFinite() {
		t.Fatal("fresh state not finite")
	}
	for _, f := range st.F3s() {
		for _, v := range f.Data {
			if v != 0 {
				t.Fatal("fresh state not zero")
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	st := New(testBlock(testGrid()))
	st.U.Set(3, 3, 1, 7)
	cl := st.Clone()
	cl.U.Set(3, 3, 1, -7)
	if st.U.At(3, 3, 1) != 7 {
		t.Fatal("clone aliases the original")
	}
}

func TestInitFromPhysicalRoundTrip(t *testing.T) {
	g := testGrid()
	st := New(testBlock(g))
	st.InitFromPhysical(g,
		func(lam, th, sig float64) float64 { return 10 },
		func(lam, th, sig float64) float64 { return 0 },
		func(lam, th, sig float64) float64 { return 280 },
		func(lam, th float64) float64 { return 100000 },
	)
	// Psa must be ps − p̃s = 0.
	if st.Psa.At(3, 4) != 0 {
		t.Errorf("psa = %v, want 0", st.Psa.At(3, 4))
	}
	// U = P·u with P ≈ 0.9989.
	p := physics.PFromPs(100000)
	if math.Abs(st.U.At(3, 4, 2)-10*p) > 1e-12 {
		t.Errorf("U = %v, want %v", st.U.At(3, 4, 2), 10*p)
	}
	// Temperature roundtrip through Φ.
	tTil := physics.StandardTemperature(g.Sigma[2])
	back := physics.TemperatureFromPhi(st.Phi.At(3, 4, 2), p, tTil)
	if math.Abs(back-280) > 1e-9 {
		t.Errorf("T roundtrip = %v, want 280", back)
	}
	// V at the pole row stays zero.
	if st.V.At(3, 0, 2) != 0 {
		t.Errorf("V at pole = %v", st.V.At(3, 0, 2))
	}
}

func TestFillLocalBounds(t *testing.T) {
	g := testGrid()
	st := New(testBlock(g))
	st.InitFromPhysical(g,
		func(lam, th, sig float64) float64 { return 5 * math.Sin(th) },
		func(lam, th, sig float64) float64 { return math.Sin(th) },
		func(lam, th, sig float64) float64 { return 270 },
		func(lam, th float64) float64 { return 100000 + 100*math.Cos(lam) },
	)
	st.FillLocalBounds(st.B.WithHalo())
	// Periodic x.
	if st.U.At(-1, 3, 1) != st.U.At(g.Nx-1, 3, 1) {
		t.Error("x periodicity broken for U")
	}
	if st.Psa.At(g.Nx, 3) != st.Psa.At(0, 3) {
		t.Error("x periodicity broken for Psa")
	}
	// Pole mirrors: U odd, Phi even.
	if st.U.At(2, -1, 1) != -st.U.At(2, 0, 1) {
		t.Error("U pole mirror not odd")
	}
	if st.Phi.At(2, -1, 1) != st.Phi.At(2, 0, 1) {
		t.Error("Phi pole mirror not even")
	}
	// Vertical mirrors.
	if st.Phi.At(2, 3, -1) != st.Phi.At(2, 3, 0) {
		t.Error("Phi vertical mirror broken")
	}
	// V pole row zeroed.
	if st.V.At(2, 0, 1) != 0 {
		t.Error("V pole row not zero after fill")
	}
}

func TestMaxAbsDiffAndFinite(t *testing.T) {
	g := testGrid()
	b := testBlock(g)
	a, c := New(b), New(b)
	if a.MaxAbsDiff(c) != 0 {
		t.Fatal("identical states differ")
	}
	c.Phi.Set(4, 4, 2, 3)
	if d := a.MaxAbsDiff(c); d != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", d)
	}
	c.Psa.Set(1, 1, math.Inf(1))
	if c.AllFinite() {
		t.Fatal("Inf not detected")
	}
}
