package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func paperProblem(px, py, pz int) Problem {
	return Problem{Nx: 720, Ny: 360, Nz: 30, M: 3, K: 1, Px: px, Py: py, Pz: pz}
}

func TestSynchronizationCounts(t *testing.T) {
	// Section 5.3 with M = 3, K = 1: S_CA = 8, S_YZ = 22, S_XY = 37.
	p := paperProblem(8, 16, 8)
	if s := SCommAvoid(p); s != 8 {
		t.Errorf("S_CA = %v, want 8", s)
	}
	if s := SOriginalYZ(p); s != 22 {
		t.Errorf("S_YZ = %v, want 22", s)
	}
	if s := SOriginalXY(p); s != 37 {
		t.Errorf("S_XY = %v, want 37", s)
	}
}

func TestWRatioCAvsYZ(t *testing.T) {
	// W_CA/W_YZ = 2/3 for identical layouts: the approximate nonlinear
	// iteration eliminates one third of the collective volume.
	p := paperProblem(1, 128, 8)
	ratio := WCommAvoid(p) / WOriginalYZ(p)
	if math.Abs(ratio-2.0/3.0) > 1e-12 {
		t.Errorf("W_CA/W_YZ = %v, want 2/3", ratio)
	}
}

func TestPaperOrdering(t *testing.T) {
	// W_XY ≫ W_YZ > W_CA and S_XY > S_YZ > S_CA at the paper's scale. The
	// W_XY/W_YZ ratio is 2·(p_z/p_x)·log p_x/log p_z, so the X-Y scheme's
	// disadvantage is pronounced when p_x stays comparable to p_z — the
	// regime the paper's "n_x ≫ n_z" argument addresses.
	for _, pp := range [][3]int{{8, 64, 8}, {16, 128, 8}, {4, 90, 15}} {
		p := paperProblem(pp[0], pp[1], pp[2])
		wca, wyz, wxy := WCommAvoid(p), WOriginalYZ(p), WOriginalXY(p)
		sca, syz, sxy := SCommAvoid(p), SOriginalYZ(p), SOriginalXY(p)
		for _, c := range []struct {
			name string
			ok   bool
		}{
			{"W_XY > W_YZ", wxy > wyz}, {"W_YZ > W_CA", wyz > wca}, {"W_XY > W_CA", wxy > wca},
			{"S_XY > S_YZ", sxy > syz}, {"S_YZ > S_CA", syz > sca}, {"S_XY > S_CA", sxy > sca},
		} {
			if !c.ok {
				t.Errorf("%s fails for layout %v: W = %v/%v/%v, S = %v/%v/%v", c.name, pp,
					wxy, wyz, wca, sxy, syz, sca)
			}
		}
	}
}

func TestWCAAlwaysBelowWYZ(t *testing.T) {
	// On identical Y-Z layouts W_CA = (2/3)·W_YZ unconditionally, and the
	// synchronization ordering S_CA < S_YZ < S_XY holds for every M, K.
	f := func(seed int64) bool {
		r := seed
		next := func(lo, hi int64) int {
			r = (r*6364136223846793005 + 1442695040888963407)
			v := (r >> 33) % (hi - lo + 1)
			if v < 0 {
				v += hi - lo + 1
			}
			return int(lo + v)
		}
		p := Problem{
			Nx: 128 * next(2, 8), Ny: 90 * next(1, 4), Nz: next(16, 30),
			M: next(1, 4), K: next(1, 10),
			Px: 1 << next(1, 5), Py: 1 << next(1, 5), Pz: 1 << next(1, 3),
		}
		okW := WCommAvoid(p) < WOriginalYZ(p) || WOriginalYZ(p) == 0
		okS := SCommAvoid(p) < SOriginalYZ(p) && SOriginalYZ(p) < SOriginalXY(p)
		return okW && okS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFilterLowerBound(t *testing.T) {
	// η_x = 0: one processor along x costs nothing (Theorem 4.1) — the
	// basis of the Y-Z decomposition choice.
	if w := FilterLowerBound(720, 1); w != 0 {
		t.Errorf("p_x = 1 bound = %v, want 0", w)
	}
	// Positive and finite for p_x ≥ 2.
	for _, px := range []int{2, 4, 32, 180} {
		w := FilterLowerBound(720, px)
		if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			t.Errorf("bound(720, %d) = %v", px, w)
		}
	}
}

func TestSumLowerBound(t *testing.T) {
	if w := SumLowerBound(720, 360, 1); w != 0 {
		t.Errorf("p_z = 1 sum bound = %v, want 0", w)
	}
	if w := SumLowerBound(720, 360, 8); w != 2*7*720*360 {
		t.Errorf("sum bound = %v", w)
	}
}

func TestHighOrderTermDominance(t *testing.T) {
	// Section 4.2's decomposition choice: accounting for how often each
	// collective runs per step (filtering after every tendency of every
	// 3-D component vs one summation per adaptation update), the filtering
	// term dominates the lower bound for realistic meshes — so eliminating
	// it (Y-Z, p_x = 1) is the right choice.
	nx, ny, nz := 720, 360, 30
	px, pz := 16, 8
	const m = 3
	filterCallsPerStep := 3 * (3*m + 3) // 3 filtered 3-D fields, 3M+3 tendencies
	sumCallsPerStep := 3 * m
	filter := FilterLowerBound(nx, px) * float64(ny*nz) * float64(filterCallsPerStep)
	sum := SumLowerBound(nx, ny, pz) * float64(sumCallsPerStep)
	if filter <= sum {
		t.Errorf("filter cost %v does not dominate summation cost %v", filter, sum)
	}
}

func TestScalingInK(t *testing.T) {
	// All costs are linear in the number of steps K.
	p1 := paperProblem(16, 64, 8)
	p2 := p1
	p2.K = 7
	if WCommAvoid(p2) != 7*WCommAvoid(p1) || SCommAvoid(p2) != 7*SCommAvoid(p1) {
		t.Error("costs not linear in K")
	}
}
