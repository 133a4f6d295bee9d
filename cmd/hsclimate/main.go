// Command hsclimate runs the Held–Suarez dry benchmark for a number of
// model days and prints the zonal-mean climatology (zonal wind and
// temperature by latitude and level) — the standard validation plot of a
// dynamical core. With enough model days the zonal wind develops the
// characteristic midlatitude westerly jets.
//
// Usage:
//
//	hsclimate [-nx N -ny N -nz N] [-days D] [-dt2 s] [-pa N -pb N] [-stretch s]
//
// A mesh, time step, run length or process grid the model cannot run is a
// one-line error and exit status 2; a run that goes non-finite prints
// RUN UNSTABLE and exits 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"cadycore/internal/comm"
	"cadycore/internal/diag"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

func main() {
	nx := flag.Int("nx", 64, "mesh points in longitude")
	ny := flag.Int("ny", 32, "mesh points in latitude")
	nz := flag.Int("nz", 10, "mesh levels")
	days := flag.Float64("days", 2, "model days to integrate")
	dt2 := flag.Float64("dt2", 300, "advection (model) time step in seconds")
	pa := flag.Int("pa", 1, "p_y")
	pb := flag.Int("pb", 1, "p_z")
	stretch := flag.Float64("stretch", 1, "σ-level stretching toward the surface (1 = uniform)")
	flag.Parse()

	cfg := dycore.DefaultConfig()
	cfg.Dt2 = *dt2
	cfg.Dt1 = *dt2 / 6
	steps := int(*days * 86400 / *dt2)
	set := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: *pa, PB: *pb, Cfg: cfg}
	var g *grid.Grid
	err := grid.Check(*nx, *ny, *nz)
	switch {
	case err != nil:
	case !(*stretch > 0) || math.IsInf(*stretch, 1):
		err = fmt.Errorf("stretch = %g must be positive and finite", *stretch)
	case !(*dt2 > 0) || math.IsInf(*dt2, 1):
		err = fmt.Errorf("dt2 = %g must be positive and finite", *dt2)
	case !(*days > 0) || steps < 1:
		err = fmt.Errorf("days = %g must cover at least one %g s step", *days, *dt2)
	default:
		sigma := grid.StretchedSigmaInterfaces(*nz, *stretch)
		if err = cfg.Validate(); err == nil {
			err = grid.CheckSigma(sigma)
		}
		if err == nil {
			g = grid.NewWithSigma(*nx, *ny, sigma)
			err = set.Check(g, 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsclimate:", err)
		os.Exit(2)
	}

	fmt.Printf("Held-Suarez on %s, %.3g model days (%d steps of %.0f s), communication-avoiding algorithm %dx%d\n",
		g, *days, steps, *dt2, *pa, *pb)

	f := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { f.Apply(g, st, cfg.Dt2) }
	res := dycore.RunWithHook(set, g, comm.Zero(), heldsuarez.InitialState, steps, hook)

	if !diag.AllFinite(res.Finals) {
		fmt.Println("RUN UNSTABLE: non-finite values appeared")
		os.Exit(1)
	}

	ubar := diag.ZonalMeanU(g, res.Finals)
	tbar := diag.ZonalMeanT(g, res.Finals)

	fmt.Printf("\nzonal-mean zonal wind ū (m/s) — rows: σ levels (top→bottom), cols: latitude (N→S)\n")
	printLatHeader(g)
	for k := 0; k < g.Nz; k += max(1, g.Nz/8) {
		fmt.Printf("σ=%4.2f ", g.Sigma[k])
		for j := 0; j < g.Ny; j += max(1, g.Ny/12) {
			fmt.Printf("%7.1f", ubar[k][j])
		}
		fmt.Println()
	}

	fmt.Printf("\nzonal-mean temperature T̄ (K)\n")
	printLatHeader(g)
	for k := 0; k < g.Nz; k += max(1, g.Nz/8) {
		fmt.Printf("σ=%4.2f ", g.Sigma[k])
		for j := 0; j < g.Ny; j += max(1, g.Ny/12) {
			fmt.Printf("%7.1f", tbar[k][j])
		}
		fmt.Println()
	}

	fmt.Printf("\nglobal diagnostics: mean ps %.2f hPa, max wind %.1f m/s, dry mass %.6g kg\n",
		diag.MeanSurfacePressure(g, res.Finals)/100, diag.MaxWind(g, res.Finals),
		diag.GlobalDryMass(g, res.Finals))
}

func printLatHeader(g *grid.Grid) {
	fmt.Printf("%7s", "lat:")
	for j := 0; j < g.Ny; j += max(1, g.Ny/12) {
		fmt.Printf("%6.0f°", g.LatitudeDeg(j))
	}
	fmt.Println()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
