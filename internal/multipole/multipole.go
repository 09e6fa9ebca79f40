// Package multipole implements truncated multipole and local expansions of
// the 3-D Laplace kernel Phi(x) = sum_i q_i/|x - x_i|, together with the six
// classical operators:
//
//	P2M  particles  -> multipole expansion             AddParticleAt
//	M2M  multipole  -> multipole about a new center    AccumulateTranslatedBuf (exact)
//	M2P  multipole  -> potential/field at a point      EvaluateFused, EvaluateFieldFused
//	M2L  multipole  -> local about a distant center    M2L
//	L2L  local      -> local about a new center        Local.Translate (exact)
//	L2P  local      -> potential/field at a point      Local.Evaluate, Local.EvaluateField
//
// The M2P and L2P kernels run the solid-harmonic recurrence column by
// column and consume each term as it is produced, in real arithmetic, with
// no scratch table and no allocation. Their two-pass table-based
// counterparts live in the package tests as oracles.
//
// Coefficient conventions follow internal/harmonics: with the Hobson
// normalization the operators are plain convolutions of coefficient arrays
// with regular/irregular harmonics of the shift vector:
//
//	M_n^m   = sum_i q_i conj(R_n^m(x_i - c))
//	Phi(x)  = Re sum_{n,m} M_n^m S_n^m(x - c)                       (M2P)
//	M'_n^m  = sum_{j,k} conj(R_j^k(c_old - c_new)) M_{n-j}^{m-k}     (M2M)
//	L_j^k   = (-1)^j sum_{n,m} M_n^m S_{j+n}^{k+m}(z - c)            (M2L)
//	L'_n^m  = sum_{j>=n,k} L_j^k conj(R_{j-n}^{k-m}(z_new - z_old))  (L2L)
//	Phi(x)  = Re sum_{n,m} L_n^m conj(R_n^m(x - z))                  (L2P)
//
// The truncation error of a degree-p multipole interaction obeys Greengard &
// Rokhlin's bound (Theorem 1 of the paper):
//
//	|Phi - Phi_p| <= A/(r-a) * (a/r)^{p+1},   A = sum_i |q_i|,
//
// exposed here as TruncationBound. Expansions additionally track A and the
// cluster radius a so the treecode can apply the bound per interaction.
package multipole

import (
	"math"
	"math/cmplx"

	"treecode/internal/harmonics"
	"treecode/internal/vec"
)

// Expansion is a truncated multipole expansion about Center: the far-field
// signature of a particle cluster.
type Expansion struct {
	Center vec.V3
	Degree int          // truncation degree p
	Coeff  []complex128 // triangular m>=0 storage, len harmonics.Len(Degree)

	AbsCharge float64 // A = sum |q_i|, drives the error bound
	Radius    float64 // radius a of the cluster about Center
}

// NewExpansion returns an empty degree-p expansion about center.
func NewExpansion(center vec.V3, p int) *Expansion {
	return &Expansion{Center: center, Degree: p, Coeff: make([]complex128, harmonics.Len(p))}
}

// Clear zeroes the coefficients and cluster statistics.
func (e *Expansion) Clear() {
	for i := range e.Coeff {
		e.Coeff[i] = 0
	}
	e.AbsCharge = 0
	e.Radius = 0
}

// AddParticleAt accumulates one charge into the expansion (P2M) and
// updates the cluster statistics, using a caller-provided scratch buffer of
// length >= harmonics.Len(e.Degree) (nil allocates).
//
//treecode:hot
func (e *Expansion) AddParticleAt(pos vec.V3, q float64, buf []complex128) {
	d := pos.Sub(e.Center)
	r := harmonics.Regular(buf, d, e.Degree)
	qc := complex(q, 0)
	for i, c := range r {
		e.Coeff[i] += qc * cmplx.Conj(c)
	}
	e.AbsCharge += math.Abs(q)
	if rad := d.Norm(); rad > e.Radius {
		e.Radius = rad
	}
}

// AccumulateTranslatedBuf adds src, re-centered onto e.Center, into e (the
// M2M accumulation of the upward pass), using a caller-provided scratch
// buffer of length >= harmonics.Len(e.Degree) (nil allocates). The result
// is exact for the degrees e keeps as long as src.Degree >= e.Degree.
// Cluster statistics are merged: charges add, and the radius becomes an
// upper bound covering both clusters.
func (e *Expansion) AccumulateTranslatedBuf(src *Expansion, buf []complex128) {
	t := src.Center.Sub(e.Center)
	rt := harmonics.Regular(buf, t, e.Degree)
	for n := 0; n <= e.Degree; n++ {
		for m := 0; m <= n; m++ {
			var sum complex128
			for j := 0; j <= n; j++ {
				for k := -j; k <= j; k++ {
					mk := m - k
					if mk > n-j || -mk > n-j {
						continue
					}
					sum += cmplx.Conj(harmonics.Get(rt, e.Degree, j, k)) *
						harmonics.Get(src.Coeff, src.Degree, n-j, mk)
				}
			}
			e.Coeff[harmonics.Idx(n, m)] += sum
		}
	}
	e.AbsCharge += src.AbsCharge
	if r := src.Radius + t.Norm(); r > e.Radius {
		e.Radius = r
	}
}

// EvaluatePrefix computes the potential at x (M2P) using terms up to
// degree p (p > e.Degree is clamped), with a caller-provided scratch
// buffer of length >= harmonics.Len(p) (nil allocates): it fills the
// irregular-harmonic table, then takes the dot product. It is the
// reference for EvaluateFused and the degree-sweeping evaluator of
// internal/analyze. x must be outside the cluster radius for the result
// to be meaningful.
//
//treecode:hot
func (e *Expansion) EvaluatePrefix(x vec.V3, p int, buf []complex128) float64 {
	if p > e.Degree {
		p = e.Degree
	}
	s := harmonics.Irregular(buf, x.Sub(e.Center), p)
	var phi float64
	base := 0 // harmonics.Idx(n, 0)
	for n := 0; n <= p; n++ {
		phi += real(e.Coeff[base] * s[base])
		for m := 1; m <= n; m++ {
			phi += 2 * real(e.Coeff[base+m]*s[base+m])
		}
		base += n + 1
	}
	return phi
}

// BoundAt returns the Theorem 1 truncation bound for evaluating this
// expansion at point x with degree p.
func (e *Expansion) BoundAt(x vec.V3, p int) float64 {
	return TruncationBound(e.AbsCharge, e.Radius, x.Dist(e.Center), p)
}

// EvaluateFused computes the M2P potential at x using terms up to degree p
// (clamped to e.Degree), fusing the irregular-harmonic recurrence with the
// coefficient dot product. Harmonics are consumed column-by-column (fixed
// order m, increasing n) as the recurrence produces them, carried in three
// scalar register pairs, so no scratch table is written or read and the
// call performs no allocation. The real-valued recurrence scalars multiply
// real/imaginary parts directly instead of going through complex
// arithmetic, and the triangular coefficient index advances incrementally
// (Idx(n+1,m) = Idx(n,m) + n + 1), so the inner loop is six multiplies and
// a fused accumulate per term.
//
// The recurrences and term pairing are exactly EvaluatePrefix's; only the
// floating-point association order differs, so results agree to roundoff.
// It is the potential kernel of every accepted interaction, leaf pass and
// walk alike.
//
//treecode:hot
func (e *Expansion) EvaluateFused(x vec.V3, p int) float64 {
	if p > e.Degree {
		p = e.Degree
	}
	d := x.Sub(e.Center)
	ux, uy, z := d.X, d.Y, d.Z
	invR2 := 1 / d.Norm2()

	smr, smi := math.Sqrt(invR2), 0.0 // S_m^m, seeded with S_0^0 = 1/rho
	var phi float64
	w := 1.0 // column weight: 1 for m = 0, 2 for m >= 1 (conjugate symmetry)
	im := 0  // Idx(m, m)
	for m := 0; ; m++ {
		c := e.Coeff[im]
		cs := real(c)*smr - imag(c)*smi // column dot product, Re(C * S)
		if m < p {
			// S_{m+1}^m = (2m+1) z S_m^m / rho^2
			f := float64(2*m+1) * z * invR2
			pr, pi := f*smr, f*smi
			i := im + m + 1 // Idx(m+1, m)
			c = e.Coeff[i]
			cs += real(c)*pr - imag(c)*pi
			qr, qi := smr, smi // S_{n-2}^m trails the recurrence
			for n := m + 2; n <= p; n++ {
				// S_n^m = ((2n-1) z S_{n-1}^m - (n+m-1)(n-m-1) S_{n-2}^m) / rho^2
				c1 := float64(2*n-1) * z * invR2
				c2 := float64((n+m-1)*(n-m-1)) * invR2
				nr := c1*pr - c2*qr
				ni := c1*pi - c2*qi
				i += n // Idx(n, m)
				c = e.Coeff[i]
				cs += real(c)*nr - imag(c)*ni
				qr, qi = pr, pi
				pr, pi = nr, ni
			}
		}
		phi += w * cs
		if m == p {
			return phi
		}
		// S_{m+1}^{m+1} = -(2m+1) (x+iy) S_m^m / rho^2
		f := float64(2*m+1) * invR2
		ar, ai := -f*ux, -f*uy
		smr, smi = ar*smr-ai*smi, ar*smi+ai*smr
		im += m + 2 // Idx(m+1, m+1)
		w = 2
	}
}

// EvaluateFieldFused computes the M2P potential and its gradient at x using
// terms up to degree p (clamped to e.Degree): the field kernel of every
// accepted interaction. The gradient is the exact gradient of the truncated
// series, from the ladder identities
//
//	dS/dx = (S_{n+1}^{m+1} - S_{n+1}^{m-1})/2
//	dS/dy = (S_{n+1}^{m+1} + S_{n+1}^{m-1})/(2i)
//	dS/dz = -S_{n+1}^m
//
// summed over -n <= m <= n. Conjugate symmetry (T_n^{-m} = (-1)^m
// conj(T_n^m) for coefficients and harmonics alike) folds each negative-m
// term onto its positive twin, so every component is a sum over the stored
// m >= 0 terms.
//
// Like EvaluateFused, the kernel runs the irregular recurrence column by
// column (fixed m, increasing n, here up to degree p+1) and scatters each
// harmonic S = S_n^m into four scalar accumulators as it is produced:
//
//	phi += w Re(C_n^m S)                              (n <= p)
//	gz  -= w Re(C_{n-1}^m S)
//	gx  += Re((C_{n-1}^{m-1} - C_{n-1}^{m+1}) S)
//	gy  += Im((C_{n-1}^{m-1} + C_{n-1}^{m+1}) S)
//
// with w = 1 for m = 0 and 2 otherwise, and a coefficient outside
// 0 <= m' <= n' read as zero. The three gradient coefficients are
// neighbours in row n-1 of the packed layout, whose phi index the previous
// row used, so one index advances per term. The rows n = m and m+1 (where
// some neighbours do not exist) and p+1 (which has no phi term) are peeled,
// leaving a branch-free inner loop; column 0, whose harmonics are real and
// which has no m-1 neighbour, has its own real-valued loop. No scratch
// table is written and the call allocates nothing; the two-pass
// table-based kernel in the tests is the oracle.
//
//treecode:hot
func (e *Expansion) EvaluateFieldFused(x vec.V3, p int) (phi float64, grad vec.V3) {
	if p > e.Degree {
		p = e.Degree
	}
	c := e.Coeff[:harmonics.Len(p)]
	d := x.Sub(e.Center)
	ux, uy := d.X, d.Y
	invR2 := 1 / d.Norm2()
	zr := d.Z * invR2
	var gx, gy, gz float64 // gz sums +w Re(C_{n-1}^m S); its sign flips on return

	// Column 0: S_0^0 = 1/rho, S_1^0 = z S_0^0 / rho^2, all real.
	smr, smi := math.Sqrt(invR2), 0.0 // S_m^m
	q, s := smr, zr*smr
	phi = real(c[0]) * q
	gz = real(c[0]) * s
	if p >= 1 {
		phi += real(c[1]) * s
		j := 1             // Idx(n-1, 0)
		f1, k2 := 3.0, 1.0 // 2n-1 and (n-1)^2 at n = 2
		for n := 2; n <= p; n++ {
			q, s = s, f1*zr*s-k2*invR2*q
			phi += real(c[j+n]) * s
			gz += real(c[j]) * s
			gx -= real(c[j+1]) * s
			gy += imag(c[j+1]) * s
			j += n
			k2 += f1
			f1 += 2
		}
		s = f1*zr*s - k2*invR2*q // S_{p+1}^0
		gz += real(c[j]) * s
		gx -= real(c[j+1]) * s
		gy += imag(c[j+1]) * s
	}

	im := 0 // Idx(m-1, m-1)
	for m := 1; ; m++ {
		// S_m^m = -(2m-1) (x+iy) S_{m-1}^{m-1} / rho^2; its only term is
		// the C_{m-1}^{m-1} ladder.
		f := float64(2*m-1) * invR2
		ar, ai := -f*ux, -f*uy
		smr, smi = ar*smr-ai*smi, ar*smi+ai*smr
		a := c[im]
		gx += real(a)*smr - imag(a)*smi
		gy += real(a)*smi + imag(a)*smr
		if m > p {
			break
		}
		im += m + 1 // Idx(m, m)
		b := c[im]
		cphi := real(b)*smr - imag(b)*smi
		// S_{m+1}^m = (2m+1) z S_m^m / rho^2: the C_m^m phi-row neighbour
		// below, C_m^{m-1} to its left, nothing to its right.
		f = float64(2*m+1) * zr
		sr, si := f*smr, f*smi
		cgz := real(b)*sr - imag(b)*si
		a = c[im-1]
		gx += real(a)*sr - imag(a)*si
		gy += real(a)*si + imag(a)*sr
		if m < p {
			j := im + m + 1 // Idx(m+1, m)
			b = c[j]
			cphi += real(b)*sr - imag(b)*si
			qr, qi := smr, smi
			f1, k2 := float64(2*m+3), float64(2*m+1) // 2n-1, (n+m-1)(n-m-1) at n = m+2
			for n := m + 2; n <= p; n++ {
				c1, c2 := f1*zr, k2*invR2
				qr, sr = sr, c1*sr-c2*qr
				qi, si = si, c1*si-c2*qi
				b = c[j+n]
				cphi += real(b)*sr - imag(b)*si
				lo, mid, hi := c[j-1], c[j], c[j+1]
				cgz += real(mid)*sr - imag(mid)*si
				dr, di := real(lo)-real(hi), imag(lo)-imag(hi)
				sumr, sumi := real(lo)+real(hi), imag(lo)+imag(hi)
				gx += dr*sr - di*si
				gy += sumr*si + sumi*sr
				j += n
				k2 += f1
				f1 += 2
			}
			c1, c2 := f1*zr, k2*invR2 // S_{p+1}^m: gradient only
			sr, si = c1*sr-c2*qr, c1*si-c2*qi
			lo, mid, hi := c[j-1], c[j], c[j+1]
			cgz += real(mid)*sr - imag(mid)*si
			gx += (real(lo)-real(hi))*sr - (imag(lo)-imag(hi))*si
			gy += (real(lo)+real(hi))*si + (imag(lo)+imag(hi))*sr
		}
		phi += 2 * cphi
		gz += 2 * cgz
	}
	return phi, vec.V3{X: gx, Y: gy, Z: -gz}
}

// TruncationBound returns the Greengard-Rokhlin bound on the absolute error
// of evaluating a degree-p expansion of a cluster with absolute charge a
// total A and radius a, at distance r > a from the center (Theorem 1).
func TruncationBound(A, a, r float64, p int) float64 {
	if r <= a {
		return math.Inf(1)
	}
	return A / (r - a) * math.Pow(a/r, float64(p+1))
}

// TruncationBoundFast is TruncationBound with the integer power computed by
// exponentiation-by-squaring instead of math.Pow — several times cheaper on
// the per-interaction hot path, identical to machine precision (the paper's
// formula is unchanged; only the power evaluation differs). Used by the
// batched evaluator's per-accept bound accounting.
//
//treecode:hot
func TruncationBoundFast(A, a, r float64, p int) float64 {
	if r <= a {
		return math.Inf(1)
	}
	return A / (r - a) * powInt(a/r, p+1)
}

// powInt returns x^n for n >= 0 by binary exponentiation.
func powInt(x float64, n int) float64 {
	y := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			y *= x
		}
		x *= x
	}
	return y
}

// Local is a truncated local (Taylor-like) expansion about Center: the
// near-field summary of distant sources, valid inside the cluster-free ball
// around Center.
type Local struct {
	Center vec.V3
	Degree int
	Coeff  []complex128 // triangular m>=0 storage
}

// NewLocal returns an empty degree-p local expansion about center.
func NewLocal(center vec.V3, p int) *Local {
	return &Local{Center: center, Degree: p, Coeff: make([]complex128, harmonics.Len(p))}
}

// Clear zeroes the coefficients.
func (l *Local) Clear() {
	for i := range l.Coeff {
		l.Coeff[i] = 0
	}
}

// M2L converts the multipole expansion, truncated at source degree pIn
// (clamped to e.Degree), into a degree-pOut local expansion about center.
// The two centers must be well separated: |center-e.Center| greater than
// the cluster radius plus the evaluation radius.
func (e *Expansion) M2L(center vec.V3, pIn, pOut int) *Local {
	if pIn > e.Degree {
		pIn = e.Degree
	}
	l := NewLocal(center, pOut)
	t := center.Sub(e.Center)
	st := harmonics.Irregular(nil, t, pOut+pIn)
	for j := 0; j <= pOut; j++ {
		sign := 1.0
		if j%2 == 1 {
			sign = -1
		}
		for k := 0; k <= j; k++ {
			var sum complex128
			for n := 0; n <= pIn; n++ {
				for m := -n; m <= n; m++ {
					sum += harmonics.Get(e.Coeff, e.Degree, n, m) *
						harmonics.Get(st, pOut+pIn, j+n, k+m)
				}
			}
			l.Coeff[harmonics.Idx(j, k)] = complex(sign, 0) * sum
		}
	}
	return l
}

// Translate shifts the local expansion to a new center inside its domain of
// validity (L2L). Exact for pOut <= l.Degree in the sense that the result
// equals the truncation of the original series re-expanded.
func (l *Local) Translate(newCenter vec.V3, pOut int) *Local {
	out := NewLocal(newCenter, pOut)
	w := newCenter.Sub(l.Center)
	rw := harmonics.Regular(nil, w, l.Degree)
	for n := 0; n <= pOut; n++ {
		for m := 0; m <= n; m++ {
			var sum complex128
			for j := n; j <= l.Degree; j++ {
				for k := -j; k <= j; k++ {
					km := k - m
					if km > j-n || -km > j-n {
						continue
					}
					sum += harmonics.Get(l.Coeff, l.Degree, j, k) *
						cmplx.Conj(harmonics.Get(rw, l.Degree, j-n, km))
				}
			}
			out.Coeff[harmonics.Idx(n, m)] = sum
		}
	}
	return out
}

// Add accumulates src into l. Centers must match; degrees may differ.
func (l *Local) Add(src *Local) {
	n := len(src.Coeff)
	if len(l.Coeff) < n {
		n = len(l.Coeff)
	}
	for i := 0; i < n; i++ {
		l.Coeff[i] += src.Coeff[i]
	}
}

// Evaluate computes the potential at x from the local expansion (L2P):
//
//	Phi(x) = sum_n [ Re(L_n^0 conj R_n^0) + 2 sum_{m>=1} Re(L_n^m conj R_n^m) ]
//
// with R = R(x - Center). Like the M2P kernels it runs the regular
// recurrence column by column and consumes each harmonic as it is
// produced, in real arithmetic, with no table and no allocation. Seeding
// R_{m-1}^m = 0 lets the three-term recurrence produce R_{m+1}^m = z R_m^m
// too, so each column is one loop.
//
//treecode:hot
func (l *Local) Evaluate(x vec.V3) float64 {
	p := l.Degree
	c := l.Coeff[:harmonics.Len(p)]
	d := x.Sub(l.Center)
	ux, uy, z := d.X, d.Y, d.Z
	rho2 := d.Norm2()

	rmr, rmi := 1.0, 0.0 // R_m^m, seeded with R_0^0 = 1
	var phi float64
	w := 1.0 // column weight: 1 for m = 0, 2 for m >= 1
	im := 0  // Idx(m, m)
	for m := 0; ; m++ {
		rr, ri := rmr, rmi
		var qr, qi, cs float64
		i := im
		for n := m; n < p; n++ {
			b := c[i]
			cs += real(b)*rr + imag(b)*ri // Re(L conj R)
			// R_{n+1}^m = ((2n+1) z R_n^m - rho^2 R_{n-1}^m) / ((n+1-m)(n+1+m))
			inv := 1 / float64((n+1-m)*(n+1+m))
			c1, c2 := float64(2*n+1)*z*inv, rho2*inv
			qr, rr = rr, c1*rr-c2*qr
			qi, ri = ri, c1*ri-c2*qi
			i += n + 1 // Idx(n+1, m)
		}
		b := c[i]
		cs += real(b)*rr + imag(b)*ri
		phi += w * cs
		if m == p {
			return phi
		}
		// R_{m+1}^{m+1} = -(x+iy) R_m^m / (2(m+1))
		f := 1 / float64(2*m+2)
		ar, ai := -f*ux, -f*uy
		rmr, rmi = ar*rmr-ai*rmi, ar*rmi+ai*rmr
		im += m + 2 // Idx(m+1, m+1)
		w = 2
	}
}

// EvaluateField computes the potential and its gradient at x (L2P with
// forces). With the ladder identities
//
//	dR/dx = (R_{n-1}^{m+1} - R_{n-1}^{m-1})/2
//	dR/dy = (R_{n-1}^{m+1} + R_{n-1}^{m-1})/(2i)
//	dR/dz = R_{n-1}^m
//
// and conjugate symmetry folding each negative-m term onto its positive
// twin, every harmonic R = R_n^m (n <= Degree) is scattered into four
// scalar accumulators as the regular recurrence produces it:
//
//	phi += w Re(L_n^m conj R)
//	gz  += w Re(L_{n+1}^m conj R)                          (n < Degree)
//	gx  += Re((L_{n+1}^{m-1} - L_{n+1}^{m+1}) conj R)      (n < Degree)
//	gy  -= Im((L_{n+1}^{m-1} + L_{n+1}^{m+1}) conj R)      (n < Degree)
//
// with w = 1 for m = 0 and 2 otherwise. The three gradient coefficients
// are neighbours in row n+1, whose phi index the next step uses. The top
// row, which has no gradient terms, is peeled; column 0, whose harmonics
// are real and which has no m-1 neighbour, is its own loop. No table is
// written and the call allocates nothing.
//
//treecode:hot
func (l *Local) EvaluateField(x vec.V3) (phi float64, grad vec.V3) {
	p := l.Degree
	c := l.Coeff[:harmonics.Len(p)]
	d := x.Sub(l.Center)
	ux, uy, z := d.X, d.Y, d.Z
	rho2 := d.Norm2()
	var gx, gy, gz float64

	// Column 0: R_0^0 = 1, R_1^0 = z, ..., all real.
	q, r := 0.0, 1.0
	i := 0 // Idx(n, 0)
	for n := 0; n < p; n++ {
		phi += real(c[i]) * r
		i += n + 1 // Idx(n+1, 0)
		gz += real(c[i]) * r
		gx -= real(c[i+1]) * r
		gy -= imag(c[i+1]) * r
		q, r = r, (float64(2*n+1)*z*r-rho2*q)/float64((n+1)*(n+1))
	}
	phi += real(c[i]) * r

	rmr, rmi := 1.0, 0.0 // R_m^m
	im := 0              // Idx(m, m)
	for m := 1; m <= p; m++ {
		// R_m^m = -(x+iy) R_{m-1}^{m-1} / (2m)
		f := 1 / float64(2*m)
		ar, ai := -f*ux, -f*uy
		rmr, rmi = ar*rmr-ai*rmi, ar*rmi+ai*rmr
		im += m + 1
		rr, ri := rmr, rmi
		var qr, qi, cphi, cgz float64
		i := im // Idx(n, m)
		for n := m; n < p; n++ {
			b := c[i]
			cphi += real(b)*rr + imag(b)*ri
			i += n + 1 // Idx(n+1, m)
			lo, mid, hi := c[i-1], c[i], c[i+1]
			cgz += real(mid)*rr + imag(mid)*ri
			gx += (real(lo)-real(hi))*rr + (imag(lo)-imag(hi))*ri
			gy += (real(lo)+real(hi))*ri - (imag(lo)+imag(hi))*rr
			inv := 1 / float64((n+1-m)*(n+1+m))
			c1, c2 := float64(2*n+1)*z*inv, rho2*inv
			qr, rr = rr, c1*rr-c2*qr
			qi, ri = ri, c1*ri-c2*qi
		}
		b := c[i]
		cphi += real(b)*rr + imag(b)*ri
		phi += 2 * cphi
		gz += 2 * cgz
	}
	return phi, vec.V3{X: gx, Y: gy, Z: gz}
}

// Terms returns the number of series terms in a degree-p expansion, the
// paper's serial cost metric: (p+1)^2 (full -n..n index range).
func Terms(p int) int64 { return int64(p+1) * int64(p+1) }
