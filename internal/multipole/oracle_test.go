package multipole

import (
	"math/cmplx"

	"treecode/internal/harmonics"
	"treecode/internal/vec"
)

// This file holds the operators only tests call: convenience P2M/P2L
// builders and the two-pass table-based M2P and L2P kernels that the fused
// production kernels are checked against.

// AddParticle accumulates one charge into the expansion (P2M) and updates
// the cluster statistics.
func (e *Expansion) AddParticle(pos vec.V3, q float64) {
	e.AddParticleAt(pos, q, nil)
}

// P2M builds a degree-p expansion about center from positions and charges.
func P2M(pos []vec.V3, q []float64, center vec.V3, p int) *Expansion {
	e := NewExpansion(center, p)
	buf := make([]complex128, harmonics.Len(p))
	for i, x := range pos {
		e.AddParticleAt(x, q[i], buf)
	}
	return e
}

// Evaluate computes the potential at x from the expansion (M2P), using terms
// up to degree p (p > e.Degree is clamped).
func (e *Expansion) Evaluate(x vec.V3, p int) float64 {
	return e.EvaluatePrefix(x, p, nil)
}

// Bound returns TruncationBound for this expansion at distance r.
func (e *Expansion) Bound(r float64) float64 {
	return TruncationBound(e.AbsCharge, e.Radius, r, e.Degree)
}

// EvaluateField computes the potential and its gradient at x with the
// two-pass oracle kernel.
func (e *Expansion) EvaluateField(x vec.V3, p int) (phi float64, grad vec.V3) {
	return e.EvaluateFieldBuf(x, p, nil)
}

// EvaluateFieldBuf is the two-pass M2P field oracle: it fills the irregular
// table up to degree p+1 (in buf, length >= harmonics.Len(p+1); nil
// allocates), then sums the ladder identities
//
//	dS/dx = (S_{n+1}^{m+1} - S_{n+1}^{m-1})/2
//	dS/dy = (S_{n+1}^{m+1} + S_{n+1}^{m-1})/(2i)
//	dS/dz = -S_{n+1}^m
//
// gathered per coefficient, each gradient component reduced to m = 0 plus
// twice the real part of the m >= 1 terms by conjugate symmetry.
func (e *Expansion) EvaluateFieldBuf(x vec.V3, p int, buf []complex128) (phi float64, grad vec.V3) {
	if p > e.Degree {
		p = e.Degree
	}
	s := harmonics.Irregular(buf, x.Sub(e.Center), p+1)
	var gx, gy, gz float64
	base := 0 // harmonics.Idx(n, 0); row n+1 starts at base + n + 1
	for n := 0; n <= p; n++ {
		b1 := base + n + 1
		// m = 0: S_{n+1}^{-1} = -conj(S_{n+1}^{1}) collapses the x/y
		// ladder to the real and imaginary parts of S_{n+1}^{1}.
		c := e.Coeff[base]
		cr, ci := real(c), imag(c)
		sv := s[base]
		phi += cr*real(sv) - ci*imag(sv)
		sp := s[b1+1]
		gx += cr * real(sp)
		gy += cr * imag(sp)
		sm := s[b1]
		gz -= cr*real(sm) - ci*imag(sm)
		for m := 1; m <= n; m++ {
			c := e.Coeff[base+m]
			cr, ci := real(c), imag(c)
			sv := s[base+m]
			phi += 2 * (cr*real(sv) - ci*imag(sv))
			spp := s[b1+m+1]
			spm := s[b1+m-1]
			// m and -m together: 2 Re of each ladder term.
			gx += cr*(real(spp)-real(spm)) - ci*(imag(spp)-imag(spm))
			gy += cr*(imag(spp)+imag(spm)) + ci*(real(spp)+real(spm))
			smid := s[b1+m]
			gz -= 2 * (cr*real(smid) - ci*imag(smid))
		}
		base = b1
	}
	return phi, vec.V3{X: gx, Y: gy, Z: gz}
}

// AddP2L accumulates the local expansion of a single distant charge (P2L).
func (l *Local) AddP2L(pos vec.V3, q float64) {
	// Phi(x) = q/|x - pos| = q/|u - s| with u = pos - center, s = x - center,
	// |s| < |u|: = q sum conj(R(s)) S(u)  => L_j^k += q S_j^k(u).
	u := pos.Sub(l.Center)
	s := harmonics.Irregular(nil, u, l.Degree)
	qc := complex(q, 0)
	for i, c := range s {
		l.Coeff[i] += qc * c
	}
}

// evaluateOracle is the table-based L2P potential: fill the regular table,
// then take the dot product.
func (l *Local) evaluateOracle(x vec.V3) float64 {
	r := harmonics.Regular(nil, x.Sub(l.Center), l.Degree)
	var phi float64
	for n := 0; n <= l.Degree; n++ {
		base := harmonics.Idx(n, 0)
		phi += real(l.Coeff[base] * cmplx.Conj(r[base]))
		for m := 1; m <= n; m++ {
			phi += 2 * real(l.Coeff[base+m]*cmplx.Conj(r[base+m]))
		}
	}
	return phi
}

// evaluateFieldOracle is the table-based L2P field: the ladder identities
// summed in complex arithmetic over the full -n <= m <= n range.
func (l *Local) evaluateFieldOracle(x vec.V3) (phi float64, grad vec.V3) {
	p := l.Degree
	r := harmonics.Regular(nil, x.Sub(l.Center), p)
	var gx, gy, gz complex128
	for n := 0; n <= p; n++ {
		for m := -n; m <= n; m++ {
			c := harmonics.Get(l.Coeff, p, n, m)
			if m >= 0 {
				if m == 0 {
					phi += real(c * cmplx.Conj(r[harmonics.Idx(n, 0)]))
				} else {
					phi += 2 * real(c*cmplx.Conj(r[harmonics.Idx(n, m)]))
				}
			}
			// d(conj R)/d* = conj(dR/d*):
			// dR/dx = (R_{n-1}^{m+1} - R_{n-1}^{m-1})/2
			// dR/dy = (R_{n-1}^{m+1} + R_{n-1}^{m-1})/(2i)
			// dR/dz = R_{n-1}^m
			rp := harmonics.Get(r, p, n-1, m+1)
			rm := harmonics.Get(r, p, n-1, m-1)
			gx += c * cmplx.Conj((rp-rm)/2)
			gy += c * cmplx.Conj((rp+rm)/complex(0, 2))
			gz += c * cmplx.Conj(harmonics.Get(r, p, n-1, m))
		}
	}
	return phi, vec.V3{X: real(gx), Y: real(gy), Z: real(gz)}
}
