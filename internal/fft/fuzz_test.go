package fft

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzRealPlanRoundTrip fuzzes the half-spectrum real transform over random
// lengths and data: Inverse∘Forward must reproduce the signal to ≤1e-12
// (scaled by n and the signal magnitude). The corpus seeds the audited edge
// cases — n = 1 (the degenerate full-complex plan), n = 2 (the smallest
// even split, whose half plan has length 1), odd lengths (the full-complex
// fallback), even non-powers-of-two on the staged kernel (48 and 360 are the
// half-lengths of the meshes the filter runs) and even lengths whose half is
// a Bluestein plan (14, 194) — so the audit stays pinned.
func FuzzRealPlanRoundTrip(f *testing.F) {
	f.Add(uint16(1), int64(1))
	f.Add(uint16(2), int64(2))
	f.Add(uint16(3), int64(3))
	f.Add(uint16(5), int64(4))
	f.Add(uint16(6), int64(5))
	f.Add(uint16(15), int64(6))
	f.Add(uint16(96), int64(7))
	f.Add(uint16(97), int64(8))
	f.Add(uint16(720), int64(9))
	f.Add(uint16(48), int64(10))
	f.Add(uint16(360), int64(11))
	f.Add(uint16(14), int64(12))
	f.Add(uint16(194), int64(13))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := 1 + (int(nRaw)+1023)%1024 // 1 … 1024; a seed names its length
		p := NewRealPlan(n)
		if got := p.SpecLen(); got != n/2+1 {
			t.Fatalf("n=%d: SpecLen = %d, want %d", n, got, n/2+1)
		}
		// Deterministic pseudo-random data from the seed (xorshift), scaled
		// into a range that exercises both large and small magnitudes.
		s := uint64(seed)*2685821657736338717 + 1
		next := func() float64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(int64(s)) / float64(math.MaxInt64) * 100
		}
		src := make([]float64, n)
		for i := range src {
			src[i] = next()
		}
		spec := make([]complex128, p.SpecLen())
		scratch := make([]complex128, p.ScratchLen())
		dst := make([]float64, n)
		p.Forward(src, spec, scratch)
		p.Inverse(spec, dst, scratch)
		scale := 0.0
		for _, v := range src {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		tol := 1e-12 * float64(n) * (1 + scale)
		for i := range src {
			if d := math.Abs(dst[i] - src[i]); d > tol {
				t.Fatalf("n=%d i=%d: round trip error %g > %g (src %g, dst %g)",
					n, i, d, tol, src[i], dst[i])
			}
		}
		// The imaginary parts of the DC and (even n) Nyquist bins must
		// vanish for real input — the invariant the smoothing symbol
		// multiply relies on when it scales bins by real factors.
		if im := imag(spec[0]); im != 0 {
			t.Fatalf("n=%d: DC bin has imaginary part %g", n, im)
		}
		if n%2 == 0 {
			if im := imag(spec[n/2]); im != 0 {
				t.Fatalf("n=%d: Nyquist bin has imaginary part %g", n, im)
			}
		}
	})
}

// FuzzPlanMatchesNaive fuzzes the complex transform — staged or Bluestein,
// whichever NewPlan picks for the length — against the O(n²) definition, and
// its inverse against the identity.
func FuzzPlanMatchesNaive(f *testing.F) {
	for i, n := range []uint8{1, 2, 3, 4, 5, 7, 14, 24, 48, 97, 120, 125, 194, 243, 0} {
		f.Add(n, int64(i))
	}
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64) {
		n := 1 + (int(nRaw)+255)%256 // 1 … 256; a seed names its length
		x := randomSignal(rand.New(rand.NewSource(seed)), n)
		tol := 1e-12 * float64(n) * (1 + maxAbs(x))
		p := NewPlan(n)
		scratch := make([]complex128, p.ScratchLen())
		got := append([]complex128(nil), x...)
		p.ForwardScratch(got, scratch)
		if d := maxDiff(got, NaiveDFT(x)); d > tol {
			t.Fatalf("n=%d: differs from the naive DFT by %g > %g", n, d, tol)
		}
		p.InverseScratch(got, scratch)
		if d := maxDiff(got, x); d > tol {
			t.Fatalf("n=%d: round trip error %g > %g", n, d, tol)
		}
	})
}
