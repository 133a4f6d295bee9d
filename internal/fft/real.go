package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// RealPlan transforms real signals of length n into the n/2+1 independent
// complex coefficients of their conjugate-symmetric spectrum and back. For
// even n it packs the signal into a half-length complex transform (the
// classic rfft split), roughly halving the arithmetic of the complex path —
// the fast path the polar filter runs on. Odd lengths fall back to the full
// complex transform behind the same interface.
//
// A RealPlan is safe for concurrent use once constructed; per-call state
// lives in the caller-provided scratch buffer (see ScratchLen).
type RealPlan struct {
	n    int
	half *Plan        // even n: complex plan of length n/2
	full *Plan        // odd n fallback: complex plan of length n
	tw   []complex128 // exp(−2πik/n), k < n/4: the split's pairs (even n only)
}

// NewRealPlan prepares a real transform of length n ≥ 1.
func NewRealPlan(n int) *RealPlan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &RealPlan{n: n}
	if n%2 == 0 {
		m := n / 2
		p.half = NewPlan(m)
		p.tw = make([]complex128, (m+1)/2)
		for k := range p.tw {
			p.tw[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		}
		return p
	}
	p.full = NewPlan(n)
	return p
}

// Len returns the signal length.
func (p *RealPlan) Len() int { return p.n }

// SpecLen returns the half-spectrum length n/2 + 1: coefficient k holds
// zonal wavenumber k; the remaining wavenumbers n−k are its conjugates and
// are never stored.
func (p *RealPlan) SpecLen() int { return p.n/2 + 1 }

// ScratchLen returns the complex work-space length Forward and Inverse
// require.
func (p *RealPlan) ScratchLen() int {
	if p.full != nil {
		return p.n + p.full.ScratchLen()
	}
	return p.n/2 + p.half.ScratchLen()
}

func (p *RealPlan) check(src []float64, spec, scratch []complex128) []complex128 {
	if len(src) != p.n {
		panic(fmt.Sprintf("fft: real input length %d != plan length %d", len(src), p.n))
	}
	if len(spec) < p.SpecLen() {
		panic(fmt.Sprintf("fft: spectrum length %d < required %d", len(spec), p.SpecLen()))
	}
	if scratch == nil {
		//cadyvet:allow nil-scratch convenience path for tests and one-off calls; hot callers pass ScratchLen scratch
		scratch = make([]complex128, p.ScratchLen())
	} else if len(scratch) < p.ScratchLen() {
		panic(fmt.Sprintf("fft: scratch length %d < required %d", len(scratch), p.ScratchLen()))
	}
	return scratch
}

// Forward computes spec[k] = Σ_j src[j]·exp(−2πi·jk/n) for k = 0 … n/2.
// scratch must hold ScratchLen() values (nil allocates). src is not
// modified.
//
//cadyvet:allocfree
func (p *RealPlan) Forward(src []float64, spec, scratch []complex128) {
	scratch = p.check(src, spec, scratch)
	if p.full != nil {
		w := scratch[:p.n]
		for i, v := range src {
			w[i] = complex(v, 0)
		}
		p.full.ForwardScratch(w, scratch[p.n:])
		copy(spec, w[:p.SpecLen()])
		// The DC coefficient of a real signal is Σ src — exactly real. The
		// complex fallback leaves rounding dirt in its imaginary part (the
		// even-n split path constructs it exactly real); clear it so
		// consumers that scale bins by real factors (the polar filter, the
		// spectral smoother) see the same invariant on every length.
		spec[0] = complex(real(spec[0]), 0)
		return
	}
	m := p.n / 2
	z := scratch[:m]
	for j := range z {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	z = p.half.transform(z, scratch[m:])
	// Split the packed transform: with E/O the spectra of the even/odd
	// subsequences, Z[k] = E[k] + i·O[k], so
	//   E[k] = (Z[k] + conj(Z[m−k]))/2,  O[k] = (Z[k] − conj(Z[m−k]))/(2i),
	// and X[k] = E[k] + w_k·O[k] with w_k = exp(−2πik/n). E and O are spectra
	// of real signals and w_{m−k} = −conj(w_k), so the mirror bin comes from
	// the same two products: X[m−k] = conj(E[k] − w_k·O[k]).
	z0 := z[0]
	spec[0] = complex(real(z0)+imag(z0), 0)
	spec[m] = complex(real(z0)-imag(z0), 0)
	for k, mk := 1, m-1; k < mk; k, mk = k+1, mk-1 {
		zk, zmk := z[k], cmplx.Conj(z[mk])
		even := scale(zk+zmk, 0.5)
		odd := p.tw[k] * scale(mulNegI(zk-zmk), 0.5)
		spec[k], spec[mk] = even+odd, cmplx.Conj(even-odd)
	}
	if m%2 == 0 {
		spec[m/2] = cmplx.Conj(z[m/2]) // w_{m/2} = −i exactly
	}
}

// Inverse reconstructs the real signal from its half spectrum (with the 1/n
// normalization, so Inverse∘Forward is the identity). spec is not modified.
//
//cadyvet:allocfree
func (p *RealPlan) Inverse(spec []complex128, dst []float64, scratch []complex128) {
	scratch = p.check(dst, spec, scratch)
	if p.full != nil {
		w := scratch[:p.n]
		w[0] = spec[0]
		for k := 1; k <= p.n/2; k++ {
			w[k] = spec[k]
			w[p.n-k] = cmplx.Conj(spec[k])
		}
		p.full.InverseScratch(w, scratch[p.n:])
		for i := range dst {
			dst[i] = real(w[i])
		}
		return
	}
	m := p.n / 2
	z := scratch[:m]
	// Invert the split: E[k] = (X[k] + conj(X[m−k]))/2,
	// O[k] = conj(w_k)·(X[k] − conj(X[m−k]))/2, Z[k] = E[k] + i·O[k], and
	// Z[m−k] = conj(E[k] − i·O[k]) by the same symmetry Forward uses. The
	// halves are left out here and folded, with the half transform's 1/m,
	// into the single 1/n of the unpack loop.
	x0, xm := real(spec[0]), real(spec[m])
	z[0] = complex(x0+xm, x0-xm)
	for k, mk := 1, m-1; k < mk; k, mk = k+1, mk-1 {
		xk, xmk := spec[k], cmplx.Conj(spec[mk])
		even := xk + xmk
		iodd := cmplx.Conj(mulNegI(p.tw[k])) * (xk - xmk) // i·conj(w_k)·(…)
		z[k], z[mk] = even+iodd, cmplx.Conj(even-iodd)
	}
	if m%2 == 0 {
		z[m/2] = scale(cmplx.Conj(spec[m/2]), 2)
	}
	// The inverse half transform is the forward one read backwards (see
	// Plan.InverseScratch), which the unpack does for free.
	z = p.half.transform(z, scratch[m:])
	inv := 1 / float64(p.n)
	dst[0], dst[1] = inv*real(z[0]), inv*imag(z[0])
	for j := 1; j < m; j++ {
		zj := z[m-j]
		dst[2*j], dst[2*j+1] = inv*real(zj), inv*imag(zj)
	}
}
