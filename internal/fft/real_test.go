package fft

import (
	"math"
	"math/rand"
	"testing"
)

func randomReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestRealForwardMatchesComplex pins the half-spectrum forward transform
// against the full complex path to 1e-12 over even, odd, power-of-two and
// Bluestein lengths (96 and 720 are the meshes the filter actually runs;
// 14 and 194 have Bluestein halves).
func TestRealForwardMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12, 14, 15, 27, 48, 64, 96, 100, 194, 360, 720} {
		rp := NewRealPlan(n)
		cp := NewPlan(n)
		x := randomReal(rng, n)

		want := cp.ForwardReal(x, nil)
		spec := make([]complex128, rp.SpecLen())
		rp.Forward(x, spec, nil)

		for k := 0; k < rp.SpecLen(); k++ {
			if d := cmplxAbs(spec[k] - want[k]); d > 1e-12*float64(n) {
				t.Fatalf("n=%d k=%d: rfft %v vs complex %v (diff %g)", n, k, spec[k], want[k], d)
			}
		}
	}
}

func cmplxAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

// TestRealRoundTrip asserts Inverse∘Forward is the identity to 1e-12.
func TestRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12, 14, 15, 27, 48, 64, 96, 100, 194, 360, 720} {
		rp := NewRealPlan(n)
		x := randomReal(rng, n)
		spec := make([]complex128, rp.SpecLen())
		scratch := make([]complex128, rp.ScratchLen())
		got := make([]float64, n)
		rp.Forward(x, spec, scratch)
		rp.Inverse(spec, got, scratch)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-12*float64(n) {
				t.Fatalf("n=%d i=%d: roundtrip %v vs %v", n, i, got[i], x[i])
			}
		}
	}
}

// TestRealPlanZeroAlloc asserts the scratch-based real transform performs no
// heap allocation — the property the allocation-free time step depends on.
func TestRealPlanZeroAlloc(t *testing.T) {
	// Halves: a power of two, radix-3 and radix-5 mixes, and Bluestein (97).
	for _, n := range []int{64, 96, 720, 1000, 194} {
		rp := NewRealPlan(n)
		x := randomReal(rand.New(rand.NewSource(13)), n)
		spec := make([]complex128, rp.SpecLen())
		scratch := make([]complex128, rp.ScratchLen())
		allocs := testing.AllocsPerRun(100, func() {
			rp.Forward(x, spec, scratch)
			rp.Inverse(spec, x, scratch)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs per forward+inverse, want 0", n, allocs)
		}
	}
}

// TestComplexScratchZeroAlloc asserts the staged kernel (radix-3 and radix-5
// lengths included) and the Bluestein fallback are allocation-free with
// caller scratch.
func TestComplexScratchZeroAlloc(t *testing.T) {
	for _, n := range []int{64, 96, 720, 1000, 97} {
		p := NewPlan(n)
		x := randomSignal(rand.New(rand.NewSource(14)), n)
		scratch := make([]complex128, p.ScratchLen())
		allocs := testing.AllocsPerRun(100, func() {
			p.ForwardScratch(x, scratch)
			p.InverseScratch(x, scratch)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs per forward+inverse, want 0", n, allocs)
		}
	}
}

func BenchmarkRealFFT720(b *testing.B) {
	rp := NewRealPlan(720)
	x := make([]float64, 720)
	for i := range x {
		x[i] = float64(i % 7)
	}
	spec := make([]complex128, rp.SpecLen())
	scratch := make([]complex128, rp.ScratchLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.Forward(x, spec, scratch)
	}
}

func BenchmarkRealFFT96(b *testing.B) {
	rp := NewRealPlan(96)
	x := make([]float64, 96)
	for i := range x {
		x[i] = float64(i % 7)
	}
	spec := make([]complex128, rp.SpecLen())
	scratch := make([]complex128, rp.ScratchLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.Forward(x, spec, scratch)
	}
}
