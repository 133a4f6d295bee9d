// Command experiments regenerates the paper's evaluation: Figures 1, 6, 7
// and 8 and the Section 5.3 theory table, printed as text tables.
//
// Usage:
//
//	experiments [-fig all|1|6|7|8|theory] [-nx N -ny N -nz N] [-m M]
//	            [-steps K] [-ps 16,32,64,128]
//
// The default mesh is a scaled version of the paper's 720×360×30 that runs
// in minutes on one machine; pass -nx 720 -ny 360 -nz 30 for the full 50 km
// mesh. Memory: a rank keeps ≈ 30 fields of its stored block at 8 B a
// value, whichever the scheme — measured 10.9 MB/rank for CA and 3.3 MB/rank
// for YZ on 96×48×12 with 4×2 ranks and M = 3. Halo storage is cut at the
// poles and the model top/bottom, but an interior CA rank still stores
// (n_x+6)×(n_y/p_y+22)×(n_z/p_z+18) values per field, so the full mesh at
// -ps 128 and above is still a tens-of-GB run.
//
// A mesh, iteration count or step count the model cannot run is a one-line
// error and exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cadycore/internal/harness"
	"cadycore/internal/opflow"
)

func main() {
	o := harness.Defaults()
	fig := flag.String("fig", "all", "which figure to regenerate: all, 1, 6, 7, 8, theory, 3d, weak, flow, ablation")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables (figures only)")
	nx := flag.Int("nx", o.Nx, "mesh points in longitude")
	ny := flag.Int("ny", o.Ny, "mesh points in latitude")
	nz := flag.Int("nz", o.Nz, "mesh levels")
	m := flag.Int("m", o.M, "nonlinear iterations per step (paper: 3)")
	steps := flag.Int("steps", o.Steps, "time steps per measurement")
	psFlag := flag.String("ps", intsToCSV(o.Ps), "comma-separated process counts")
	flag.Parse()

	o.Nx, o.Ny, o.Nz, o.M, o.Steps = *nx, *ny, *nz, *m, *steps
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	ps, err := csvToInts(*psFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -ps:", err)
		os.Exit(2)
	}
	o.Ps = harness.SortedPs(ps)
	o.Prime()

	fmt.Printf("mesh %dx%dx%d, M=%d, %d steps, Held-Suarez workload, simulated Tianhe-like network\n\n",
		o.Nx, o.Ny, o.Nz, o.M, o.Steps)

	render := func(f harness.Figure) {
		if *csv {
			fmt.Print(f.CSV())
			return
		}
		fmt.Println(f.Format())
	}

	switch *fig {
	case "all":
		for _, f := range harness.AllFigures(o) {
			render(f)
		}
		fmt.Println(harness.FormatTheory(harness.TheoryTable(o)))
	case "1":
		render(harness.Figure1(o))
	case "6":
		render(harness.Figure6(o))
	case "7":
		render(harness.Figure7(o))
	case "8":
		render(harness.Figure8(o))
	case "3d":
		render(harness.Figure3D(o))
	case "weak":
		render(harness.FigureWeak(o))
	case "ablation":
		render(harness.FigureAblation(o))
	case "flow":
		fmt.Println(opflow.Describe(o.M))
		a, err := opflow.Advise(o.Nx, o.Ny, o.Nz, o.Ps[len(o.Ps)-1], o.M)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println("decomposition advice:", a.Reason)
	case "theory":
		fmt.Println(harness.FormatTheory(harness.TheoryTable(o)))
	default:
		fmt.Fprintln(os.Stderr, "unknown -fig:", *fig)
		os.Exit(2)
	}
}

func intsToCSV(ps []int) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

func csvToInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("process count %d must be positive", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no process counts given")
	}
	return out, nil
}
