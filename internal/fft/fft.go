// Package fft implements the one-dimensional fast Fourier transforms the
// Fourier polar filter is built on: one staged mixed-radix kernel (radix 4,
// 3, 5 and 2 Stockham passes) for every 5-smooth length — powers of two and
// the zonal extents the model runs (96, 48, 720 and their halves) alike —
// and Bluestein's chirp-z algorithm, itself running on a staged power-of-two
// plan, for lengths with a prime factor above 5; plus real-signal helpers.
// Only the standard library is used.
//
// Plans cache per-stage twiddle tables per length; a Plan is safe for
// concurrent use once constructed (all mutable state lives in
// caller-provided or per-call buffers).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Plan holds the precomputed tables for transforms of one length.
type Plan struct {
	n int

	// staged path (n is 5-smooth): the passes in execution order
	stages []stage

	// Bluestein path (n has a prime factor > 5)
	chirp []complex128 // w_k = exp(-iπk²/n)
	bconv []complex128 // FFT of the chirp convolution kernel, pre-divided by its length inner.n
	inner *Plan        // staged power-of-two plan of length ≥ 2n−1
}

// stage is one Stockham pass: n/radix butterflies of the given radix,
// reading m twiddle rows of s contiguous columns from one buffer and writing
// them to the other in the order the next pass reads. The passes' radices
// multiply to n; s is the product of the radices already done, m = n/(s·radix)
// what is left. The output lands in natural order, so there is no
// digit-reversal permutation — the price is the second buffer.
type stage struct {
	radix, m, s int
	// tw[(radix−1)·p + k−1] = exp(−2πi·p·k/(m·radix)) for p < m, 0 < k < radix:
	// the factor output k of twiddle row p carries into the next pass.
	tw []complex128
}

// NewPlan prepares a transform of length n ≥ 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	if radices, ok := factorize(n); ok && !bluesteinOnly {
		return newStaged(n, radices)
	}
	return newBluestein(n)
}

// bluesteinOnly routes every length through newBluestein. Nothing outside
// this package's tests can set it (export_test.go): it exists so a test can
// run the dynamical core on the reference transform.
var bluesteinOnly bool

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// factorize splits a 5-smooth n into pass radices: as many 4s as fit, then
// 3s and 5s, and a single leftover 2 last — the last pass has m = 1, where
// every twiddle is 1, so pass2 needs no twiddles at all.
func factorize(n int) (radices []int, ok bool) {
	for n%4 == 0 {
		radices = append(radices, 4)
		n /= 4
	}
	two := n%2 == 0
	if two {
		n /= 2
	}
	for _, r := range []int{3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	if two {
		radices = append(radices, 2)
	}
	return radices, n == 1
}

func newStaged(n int, radices []int) *Plan {
	p := &Plan{n: n, stages: make([]stage, len(radices))}
	s := 1
	for i, r := range radices {
		m := n / (s * r)
		st := stage{radix: r, m: m, s: s, tw: make([]complex128, (r-1)*m)}
		for q := 0; q < m; q++ {
			for k := 1; k < r; k++ {
				ang := -2 * math.Pi * float64(q*k) / float64(m*r)
				st.tw[(r-1)*q+k-1] = cmplx.Exp(complex(0, ang))
			}
		}
		p.stages[i] = st
		s *= r
	}
	return p
}

// newBluestein builds the chirp-z plan for any n. NewPlan uses it for
// lengths the staged kernel cannot factor; tests also use it on 5-smooth
// lengths, as the independent reference for the staged kernel.
func newBluestein(n int) *Plan {
	p := &Plan{n: n, chirp: make([]complex128, n)}
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		p.chirp[k] = cmplx.Exp(complex(0, ang))
	}
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	radices, _ := factorize(m)
	p.inner = newStaged(m, radices)
	// Convolution kernel b_k = conj(chirp)_|k| wrapped.
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		c := cmplx.Conj(p.chirp[k])
		b[k] = c
		if k > 0 {
			b[m-k] = c
		}
	}
	p.inner.Forward(b)
	for k := range b {
		b[k] = scale(b[k], 1/float64(m)) // the inner inverse's 1/m, paid here once
	}
	p.bconv = b
	return p
}

// Forward computes the in-place forward DFT
// X_k = Σ_j x_j · exp(−2πi·jk/n). It allocates the work buffer; hot paths
// should use ForwardScratch.
func (p *Plan) Forward(x []complex128) {
	p.ForwardScratch(x, nil)
}

// ScratchLen returns the length of the complex work buffer ForwardScratch
// and InverseScratch need: n for the staged kernel (the second buffer its
// passes ping-pong with), two padded lengths for Bluestein (the padded signal
// plus the inner plan's second buffer).
func (p *Plan) ScratchLen() int {
	if p.inner != nil {
		return 2 * p.inner.n
	}
	return p.n
}

// ForwardScratch is Forward with caller-provided work space of at least
// ScratchLen() values (nil allocates). With caller scratch the transform
// performs no heap allocation, and one Plan can serve many goroutines as
// long as each brings its own scratch.
func (p *Plan) ForwardScratch(x, scratch []complex128) {
	scratch = p.check(x, scratch)
	if res := p.transform(x, scratch); &res[0] != &x[0] {
		copy(x, res)
	}
}

// Inverse computes the in-place inverse DFT (with the 1/n normalization),
// so Inverse(Forward(x)) == x.
func (p *Plan) Inverse(x []complex128) {
	p.InverseScratch(x, nil)
}

// InverseScratch is Inverse with caller-provided work space (see
// ForwardScratch). The inverse is the forward transform read backwards —
// x_j = X'_{(n−j) mod n}/n with X' = DFT(X) — so it costs one forward
// transform plus a single reverse-and-scale sweep.
func (p *Plan) InverseScratch(x, scratch []complex128) {
	scratch = p.check(x, scratch)
	n := p.n
	inv := 1 / float64(n)
	res := p.transform(x, scratch)
	if &res[0] == &x[0] {
		// Reverse out of place: one copy, on an inverse that is not the hot
		// one (RealPlan.Inverse reverses in its unpack loop).
		res = scratch[:n]
		copy(res, x)
	}
	x[0] = scale(res[0], inv)
	for j := 1; j < n; j++ {
		x[j] = scale(res[n-j], inv)
	}
}

func scale(z complex128, c float64) complex128 {
	return complex(c*real(z), c*imag(z))
}

// check validates x and returns ScratchLen() values of work space.
func (p *Plan) check(x, scratch []complex128) []complex128 {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d != plan length %d", len(x), p.n))
	}
	need := p.ScratchLen()
	if scratch == nil {
		return make([]complex128, need)
	}
	if len(scratch) < need {
		panic(fmt.Sprintf("fft: scratch length %d < required %d", len(scratch), need))
	}
	return scratch[:need]
}

// transform computes the forward DFT of x using work (ScratchLen() values)
// and returns the buffer the result landed in: x itself, or work[:n] when
// the number of passes is odd. Callers that copy the result elsewhere anyway
// (RealPlan's split, Bluestein's chirp multiply) read it where it lies.
func (p *Plan) transform(x, work []complex128) []complex128 {
	if p.inner != nil {
		return p.bluestein(x, work)
	}
	y := work[:p.n]
	for i := range p.stages {
		st := &p.stages[i]
		switch st.radix {
		case 4:
			st.pass4(x, y)
		case 3:
			st.pass3(x, y)
		case 5:
			st.pass5(x, y)
		default:
			st.pass2(x, y)
		}
		x, y = y, x
	}
	return x
}

// The passes. With h = m·s = n/radix, input j of the butterfly at (twiddle
// row p, column q) is x[j·h + p·s + q] and output k goes to
// y[(radix·p + k)·s + q], times row p's twiddle for k. Row 0's twiddles are
// all 1, so it skips the multiplies.

// mulNegI returns −i·z, the quarter turn of the forward transform.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

func bfly4(a, b, c, d complex128) (y0, y1, y2, y3 complex128) {
	t0, t1 := a+c, a-c
	t2, t3 := b+d, mulNegI(b-d)
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

func (st *stage) pass4(x, y []complex128) {
	m, s := st.m, st.s
	h := m * s
	x0, x1, x2, x3 := x[:h], x[h:2*h], x[2*h:3*h], x[3*h:4*h]
	if s == 1 {
		// The first pass has one column per twiddle row: index the rows
		// directly instead of cutting a dozen one-element slices for each
		// (−27 % at n = 1024). Radix 4 leads every factorisation that has
		// one, so only this pass carries the special case.
		tw, out := st.tw[:3*h], y[:4*h]
		for p := range x0 {
			b0, b1, b2, b3 := bfly4(x0[p], x1[p], x2[p], x3[p])
			out[4*p], out[4*p+1], out[4*p+2], out[4*p+3] = b0, b1*tw[3*p], b2*tw[3*p+1], b3*tw[3*p+2]
		}
		return
	}
	for p := 0; p < m; p++ {
		i, o := s*p, 4*s*p
		a0, a1, a2, a3 := x0[i:i+s], x1[i:i+s], x2[i:i+s], x3[i:i+s]
		y0, y1, y2, y3 := y[o:][:s], y[o+s:][:s], y[o+2*s:][:s], y[o+3*s:][:s]
		if p == 0 {
			for q := range a0 {
				y0[q], y1[q], y2[q], y3[q] = bfly4(a0[q], a1[q], a2[q], a3[q])
			}
			continue
		}
		w1, w2, w3 := st.tw[3*p], st.tw[3*p+1], st.tw[3*p+2]
		for q := range a0 {
			b0, b1, b2, b3 := bfly4(a0[q], a1[q], a2[q], a3[q])
			y0[q], y1[q], y2[q], y3[q] = b0, b1*w1, b2*w2, b3*w3
		}
	}
}

const sin60 = 0.86602540378443864676372317075293618347140262690519 // √3/2

func bfly3(a, b, c complex128) (y0, y1, y2 complex128) {
	t1 := b + c
	t2 := a - scale(t1, 0.5)
	t3 := scale(mulNegI(b-c), sin60)
	return a + t1, t2 + t3, t2 - t3
}

func (st *stage) pass3(x, y []complex128) {
	m, s := st.m, st.s
	h := m * s
	x0, x1, x2 := x[:h], x[h:2*h], x[2*h:3*h]
	for p := 0; p < m; p++ {
		i, o := s*p, 3*s*p
		a0, a1, a2 := x0[i:i+s], x1[i:i+s], x2[i:i+s]
		y0, y1, y2 := y[o:][:s], y[o+s:][:s], y[o+2*s:][:s]
		if p == 0 {
			for q := range a0 {
				y0[q], y1[q], y2[q] = bfly3(a0[q], a1[q], a2[q])
			}
			continue
		}
		w1, w2 := st.tw[2*p], st.tw[2*p+1]
		for q := range a0 {
			b0, b1, b2 := bfly3(a0[q], a1[q], a2[q])
			y0[q], y1[q], y2[q] = b0, b1*w1, b2*w2
		}
	}
}

const (
	cos72  = 0.30901699437494742410229341718281905886015458990288  // cos 2π/5
	cos144 = -0.80901699437494742410229341718281905886015458990288 // cos 4π/5
	sin72  = 0.95105651629515357211643933337938214340569863412575  // sin 2π/5
	sin144 = 0.58778525229247312916870595463907276859765243764314  // sin 4π/5
)

func bfly5(a, b, c, d, e complex128) (y0, y1, y2, y3, y4 complex128) {
	t1, t2, t3, t4 := b+e, c+d, b-e, c-d
	m1 := a + scale(t1, cos72) + scale(t2, cos144)
	m2 := a + scale(t1, cos144) + scale(t2, cos72)
	n1 := mulNegI(scale(t3, sin72) + scale(t4, sin144))
	n2 := mulNegI(scale(t3, sin144) - scale(t4, sin72))
	return a + t1 + t2, m1 + n1, m2 + n2, m2 - n2, m1 - n1
}

func (st *stage) pass5(x, y []complex128) {
	m, s := st.m, st.s
	h := m * s
	x0, x1, x2, x3, x4 := x[:h], x[h:2*h], x[2*h:3*h], x[3*h:4*h], x[4*h:5*h]
	for p := 0; p < m; p++ {
		i, o := s*p, 5*s*p
		a0, a1, a2, a3, a4 := x0[i:i+s], x1[i:i+s], x2[i:i+s], x3[i:i+s], x4[i:i+s]
		y0, y1, y2, y3, y4 := y[o:][:s], y[o+s:][:s], y[o+2*s:][:s], y[o+3*s:][:s], y[o+4*s:][:s]
		if p == 0 {
			for q := range a0 {
				y0[q], y1[q], y2[q], y3[q], y4[q] = bfly5(a0[q], a1[q], a2[q], a3[q], a4[q])
			}
			continue
		}
		w1, w2, w3, w4 := st.tw[4*p], st.tw[4*p+1], st.tw[4*p+2], st.tw[4*p+3]
		for q := range a0 {
			b0, b1, b2, b3, b4 := bfly5(a0[q], a1[q], a2[q], a3[q], a4[q])
			y0[q], y1[q], y2[q], y3[q], y4[q] = b0, b1*w1, b2*w2, b3*w3, b4*w4
		}
	}
}

// pass2 is always the last pass (see factorize): m = 1, no twiddles.
func (st *stage) pass2(x, y []complex128) {
	h := st.s
	x0, x1 := x[:h], x[h:2*h]
	y0, y1 := y[:h], y[h:2*h]
	for q := range y0 {
		a, b := x0[q], x1[q]
		y0[q], y1[q] = a+b, a-b
	}
}

// bluestein evaluates the DFT of arbitrary length as a convolution with the
// chirp, in work = [padded signal | inner plan's work], and returns x, where
// the final chirp multiply writes the result.
func (p *Plan) bluestein(x, work []complex128) []complex128 {
	n, m := p.n, p.inner.n
	a, inner := work[:m], work[m:]
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	fa := p.inner.transform(a, inner)
	for k := range fa {
		fa[k] *= p.bconv[k]
	}
	// Inverse length-m transform, read backwards (see InverseScratch).
	other := a
	if &fa[0] == &a[0] {
		other = inner
	}
	c := p.inner.transform(fa, other)
	x[0] = p.chirp[0] * c[0]
	for k := 1; k < n; k++ {
		x[k] = p.chirp[k] * c[m-k]
	}
	return x
}

// ForwardReal transforms a real signal into its n complex coefficients
// (dst may be nil; the coefficient slice is returned).
func (p *Plan) ForwardReal(src []float64, dst []complex128) []complex128 {
	if len(src) != p.n {
		panic(fmt.Sprintf("fft: input length %d != plan length %d", len(src), p.n))
	}
	if dst == nil {
		dst = make([]complex128, p.n)
	}
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
	p.Forward(dst)
	return dst
}

// NaiveDFT computes the forward DFT directly in O(n²); it exists as the
// reference for tests.
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}
