package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 30, 45, 64, 100, 360} {
		p := NewPlan(n)
		x := randomSignal(rng, n)
		want := NaiveDFT(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		if d := maxDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: FFT differs from naive DFT by %g", n, d)
		}
	}
}

func maxAbs(x []complex128) float64 {
	m := 0.0
	for _, v := range x {
		m = math.Max(m, cmplx.Abs(v))
	}
	return m
}

// tableLengths is every n in 1…256 — all small radix mixes, and the
// Bluestein fallback on each length with a prime factor above 5 — plus the
// half and full zonal extents of the paper's mesh, a long power of two, and
// two longer Bluestein lengths.
func tableLengths() []int {
	var ns []int
	for n := 1; n <= 256; n++ {
		ns = append(ns, n)
	}
	return append(ns, 360, 720, 1024, 2*3*5*7*2, 1001)
}

// TestForwardMatchesReferences pins the kernel NewPlan picks against two
// independent references: the O(n²) definition on every table length, and
// the Bluestein plan on every length the staged kernel serves.
func TestForwardMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range tableLengths() {
		x := randomSignal(rng, n)
		tol := 1e-12 * float64(n) * maxAbs(x)
		got := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.Forward(got)
		if d := maxDiff(got, NaiveDFT(x)); d > tol {
			t.Errorf("n=%d: differs from the naive DFT by %g > %g", n, d, tol)
		}
		if p.inner != nil {
			continue
		}
		ref := append([]complex128(nil), x...)
		newBluestein(n).Forward(ref)
		if d := maxDiff(got, ref); d > tol {
			t.Errorf("n=%d: staged differs from Bluestein by %g > %g", n, d, tol)
		}
	}
}

// TestPlanPaths pins which of the two paths a length gets: staged exactly
// when n is 5-smooth, with pass radices that multiply to n.
func TestPlanPaths(t *testing.T) {
	for _, n := range tableLengths() {
		rest := n
		for _, f := range []int{2, 3, 5} {
			for rest%f == 0 {
				rest /= f
			}
		}
		p := NewPlan(n)
		if staged := p.inner == nil; staged != (rest == 1) {
			t.Errorf("n=%d: staged = %v, 5-smooth = %v", n, staged, rest == 1)
		}
		prod := 1
		for _, st := range p.stages {
			prod *= st.radix
		}
		if p.inner == nil && prod != n {
			t.Errorf("n=%d: pass radices multiply to %d", n, prod)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 8, 15, 27, 32, 60, 128, 720} {
		p := NewPlan(n)
		x := randomSignal(rng, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := maxDiff(x, y); d > 1e-9*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, d)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: Inverse∘Forward is the identity for random lengths/signals.
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		p := NewPlan(n)
		x := randomSignal(rng, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		return maxDiff(x, y) <= 1e-9*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 33, 100} {
		p := NewPlan(n)
		x := randomSignal(rng, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		var ex, ey float64
		for i := 0; i < n; i++ {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		ey /= float64(n)
		if math.Abs(ex-ey) > 1e-8*ex {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, ex, ey)
		}
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 48
	p := NewPlan(n)
	x := randomSignal(rng, n)
	y := randomSignal(rng, n)
	// F(2x + 3y)
	comb := make([]complex128, n)
	for i := range comb {
		comb[i] = 2*x[i] + 3*y[i]
	}
	p.Forward(comb)
	fx := append([]complex128(nil), x...)
	fy := append([]complex128(nil), y...)
	p.Forward(fx)
	p.Forward(fy)
	for i := range fx {
		fx[i] = 2*fx[i] + 3*fy[i]
	}
	if d := maxDiff(comb, fx); d > 1e-8*float64(n) {
		t.Errorf("linearity violated by %g", d)
	}
}

func TestRealHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{8, 25, 360} {
		p := NewPlan(n)
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		coef := p.ForwardReal(src, nil)
		// Conjugate symmetry of a real signal's spectrum.
		for k := 1; k < n; k++ {
			if d := cmplx.Abs(coef[k] - cmplx.Conj(coef[n-k])); d > 1e-8 {
				t.Errorf("n=%d k=%d: spectrum not conjugate-symmetric (%g)", n, k, d)
				break
			}
		}
		p.Inverse(coef)
		for i, v := range coef {
			if math.Abs(real(v)-src[i]) > 1e-9*float64(n) {
				t.Errorf("n=%d: real roundtrip error at %d: %g vs %g", n, i, real(v), src[i])
				break
			}
		}
	}
}

func TestPureToneSpectrum(t *testing.T) {
	// A pure cosine of wavenumber m must put all energy in bins m and n−m.
	n, m := 64, 5
	p := NewPlan(n)
	src := make([]float64, n)
	for i := range src {
		src[i] = math.Cos(2 * math.Pi * float64(m*i) / float64(n))
	}
	coef := p.ForwardReal(src, nil)
	for k := 0; k < n; k++ {
		mag := cmplx.Abs(coef[k])
		if k == m || k == n-m {
			if math.Abs(mag-float64(n)/2) > 1e-8 {
				t.Errorf("bin %d magnitude %g, want %g", k, mag, float64(n)/2)
			}
		} else if mag > 1e-8 {
			t.Errorf("bin %d should be empty, has %g", k, mag)
		}
	}
}

func TestPlanLengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	NewPlan(0)
}

func benchForward(b *testing.B, n int) {
	p := NewPlan(n)
	x := randomSignal(rand.New(rand.NewSource(int64(n))), n)
	scratch := make([]complex128, p.ScratchLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardScratch(x, scratch)
	}
}

func BenchmarkFFTPow2(b *testing.B) { benchForward(b, 1024) }

// 720 is the paper's zonal extent (50 km mesh): 2⁴·3²·5, staged.
func BenchmarkFFT720(b *testing.B) { benchForward(b, 720) }

// 194 = 2·97 has a prime factor above 5: the Bluestein fallback.
func BenchmarkFFTBluestein194(b *testing.B) { benchForward(b, 194) }
