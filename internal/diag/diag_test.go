package diag

import (
	"math"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

func testGrid() *grid.Grid { return grid.New(32, 16, 6) }

func serialState(g *grid.Grid) *state.State {
	b := field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
	return state.New(b)
}

func TestGlobalDryMassOfStandardAtmosphere(t *testing.T) {
	g := testGrid()
	st := serialState(g) // psa = 0 ⇒ ps = 1000 hPa everywhere
	mass := GlobalDryMass(g, []*state.State{st})
	// Earth's atmosphere: ≈ 5.3·10¹⁸ kg (ps·4πa²/g).
	area := 0.0
	for j := 0; j < g.Ny; j++ {
		area += g.CellArea(j) * float64(g.Nx)
	}
	want := physics.P0 * area / physics.Gravity
	if math.Abs(mass-want) > 1e-6*want {
		t.Errorf("dry mass %v, want %v", mass, want)
	}
	if mass < 5.0e18 || mass > 5.4e18 {
		t.Errorf("dry mass %v kg not Earth-like", mass)
	}
}

func TestReplicatedSurfaceNotDoubleCounted(t *testing.T) {
	// Two z-blocks replicate psa; global surface diagnostics must count
	// each column once.
	g := testGrid()
	full := serialState(g)
	bTop := full.B
	bTop.K0, bTop.K1 = 0, 3
	bBot := full.B
	bBot.K0, bBot.K1 = 3, 6
	split := []*state.State{state.New(bTop), state.New(bBot)}
	one := GlobalDryMass(g, []*state.State{full})
	two := GlobalDryMass(g, split)
	if math.Abs(one-two) > 1e-6*one {
		t.Errorf("z-replicated mass double counted: %v vs %v", one, two)
	}
}

func TestMeanSurfacePressure(t *testing.T) {
	g := testGrid()
	st := serialState(g)
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			st.Psa.Set(i, j, 250)
		}
	}
	if ps := MeanSurfacePressure(g, []*state.State{st}); math.Abs(ps-100250) > 1e-9 {
		t.Errorf("mean ps = %v, want 100250", ps)
	}
}

func TestEnergiesPositiveAndAdditive(t *testing.T) {
	g := testGrid()
	st := serialState(g)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				st.U.Set(i, j, k, 3)
				st.Phi.Set(i, j, k, 2)
			}
		}
	}
	ke := KineticEnergy(g, []*state.State{st})
	ae := AvailableEnergy(g, []*state.State{st})
	if ke <= 0 || ae <= 0 {
		t.Fatalf("energies not positive: %v %v", ke, ae)
	}
	if tot := TotalEnergy(g, []*state.State{st}); math.Abs(tot-(ke+ae)) > 1e-6 {
		t.Errorf("total energy %v != %v + %v", tot, ke, ae)
	}
	// KE scales quadratically with wind.
	st2 := serialState(g)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				st2.U.Set(i, j, k, 6)
			}
		}
	}
	ke2 := KineticEnergy(g, []*state.State{st2})
	st3 := serialState(g)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				st3.U.Set(i, j, k, 3)
			}
		}
	}
	ke3 := KineticEnergy(g, []*state.State{st3})
	if math.Abs(ke2-4*ke3) > 1e-6*ke2 {
		t.Errorf("KE not quadratic: %v vs 4·%v", ke2, ke3)
	}
}

func TestZonalMeans(t *testing.T) {
	g := testGrid()
	st := serialState(g)
	p := physics.PFromPs(physics.P0)
	// u = 10 m/s at row 4, level 2 only.
	for i := 0; i < g.Nx; i++ {
		st.U.Set(i, 4, 2, 10*p)
	}
	ub := ZonalMeanU(g, []*state.State{st})
	if math.Abs(ub[2][4]-10) > 1e-9 {
		t.Errorf("zonal mean u = %v, want 10", ub[2][4])
	}
	if ub[2][5] != 0 || ub[3][4] != 0 {
		t.Error("zonal mean leaked to other rows/levels")
	}
	// Temperature of the zero state is T̃(σ).
	tb := ZonalMeanT(g, []*state.State{st})
	want := physics.StandardTemperature(g.Sigma[1])
	if math.Abs(tb[1][3]-want) > 1e-9 {
		t.Errorf("zonal mean T = %v, want %v", tb[1][3], want)
	}
}

func TestMaxWind(t *testing.T) {
	g := testGrid()
	st := serialState(g)
	p := physics.PFromPs(physics.P0)
	st.U.Set(5, 5, 2, -25*p)
	st.V.Set(6, 6, 3, 12*p)
	if mw := MaxWind(g, []*state.State{st}); math.Abs(mw-25) > 1e-9 {
		t.Errorf("max wind = %v, want 25", mw)
	}
}

func TestAllFinite(t *testing.T) {
	g := testGrid()
	st := serialState(g)
	if !AllFinite([]*state.State{st}) {
		t.Fatal("zero state reported non-finite")
	}
	st.Phi.Set(3, 3, 3, math.NaN())
	if AllFinite([]*state.State{st}) {
		t.Fatal("NaN not detected")
	}
}
