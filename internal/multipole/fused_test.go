package multipole

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"treecode/internal/legendre"
	"treecode/internal/vec"
)

// TestEvaluateFusedMatchesPrefix: the fused single-pass M2P kernel must
// agree with the two-pass reference to roundoff across degrees, prefix
// clamping included.
func TestEvaluateFusedMatchesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	center := vec.V3{X: 0.3, Y: -0.2, Z: 0.1}
	pos, q := randomCluster(rng, 60, center, 0.4)
	// 20 and 26 reach the adaptive MaxDegree of the boundary-element
	// operator (minimum degree 6 + 20), which walk potentials evaluate
	// through EvaluateFused.
	for _, p := range []int{0, 1, 2, 4, 8, 15, 20, 26} {
		e := NewExpansion(center, p)
		for i := range pos {
			e.AddParticle(pos[i], q[i])
		}
		for trial := 0; trial < 50; trial++ {
			x := vec.V3{
				X: 3 * (2*rng.Float64() - 1),
				Y: 3 * (2*rng.Float64() - 1),
				Z: 3 * (2*rng.Float64() - 1),
			}
			if x.Dist(center) < 1 {
				continue
			}
			for _, pe := range []int{0, p / 2, p, p + 3} {
				want := e.EvaluatePrefix(x, pe, nil)
				got := e.EvaluateFused(x, pe)
				if d := math.Abs(got - want); d > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("p=%d prefix=%d at %v: fused %v, reference %v (diff %g)", p, pe, x, got, want, d)
				}
			}
		}
	}
}

// TestEvaluateFieldFusedMatchesOracle: the fused M2P field kernel must
// agree with the two-pass table-based oracle to roundoff for every degree
// up to legendre.MaxAccurateDegree, prefix clamping included, over random
// clusters, centers, directions and separations. Roundoff is measured
// against the magnitude of the series rather than of its (possibly
// cancelling) sum: the terms of degree n are bounded by A a^n / r^(n+1), so
// the potential's terms sum to at most A/(r-a) and the gradient's to about
// A/(r-a)^2.
func TestEvaluateFieldFusedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	buf := make([]complex128, 600)
	for p := 0; p <= legendre.MaxAccurateDegree; p++ {
		for trial := 0; trial < 20; trial++ {
			a := 0.05 + 2*rng.Float64()
			center := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			pos, q := randomCluster(rng, 1+rng.Intn(40), center, a)
			e := P2M(pos, q, center, p)
			r := e.Radius * (1.1 + 4*rng.Float64())
			x := center.Add(vec.FromSpherical(r, math.Acos(2*rng.Float64()-1), 2*math.Pi*rng.Float64()))
			sPhi := e.AbsCharge / (r - e.Radius)
			sGrad := sPhi / (r - e.Radius)
			for _, pe := range []int{0, p / 2, p, p + 3} {
				wantPhi, wantGrad := e.EvaluateFieldBuf(x, pe, buf)
				phi, grad := e.EvaluateFieldFused(x, pe)
				if d := math.Abs(phi - wantPhi); d > 1e-13*sPhi {
					t.Fatalf("p=%d prefix=%d: phi %v, oracle %v (diff %.3g of scale %.3g)", p, pe, phi, wantPhi, d, sPhi)
				}
				if d := grad.Sub(wantGrad).Norm(); d > 1e-13*sGrad {
					t.Fatalf("p=%d prefix=%d: grad %v, oracle %v (diff %.3g of scale %.3g)", p, pe, grad, wantGrad, d, sGrad)
				}
				if d := math.Abs(e.EvaluateFused(x, pe) - phi); d > 1e-13*sPhi {
					t.Fatalf("p=%d prefix=%d: field and potential kernels disagree on phi by %.3g", p, pe, d)
				}
			}
		}
	}
}

// FuzzFieldFused compares the fused M2P field kernel with the two-pass
// oracle on fuzzed geometry and charges: an offset from the expansion
// center, a degree up to legendre.MaxAccurateDegree, an evaluation prefix,
// and four charges at fixed points of a ball of radius 1/2. Inputs that
// leave the convergence region or the range where float64 series are
// meaningful (non-finite values, offsets inside 1.05 cluster radii or
// beyond 1e4, charges outside [1e-50, 1e50] in magnitude) are skipped. The
// tolerance is the oracle test's: 1e-13 of the series magnitude.
func FuzzFieldFused(f *testing.F) {
	f.Add(2.0, 0.5, -1.0, uint8(8), uint8(8), 1.0, -0.5, 0.25, 2.0)
	f.Add(0.1, -0.2, 0.6, uint8(30), uint8(33), 1.0, 1.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 3.0, uint8(0), uint8(0), -1.0, 0.0, 0.0, 1.0)
	f.Add(-40.0, 7.0, 0.001, uint8(13), uint8(5), 3.0, -2.0, 1e-3, 5.0)
	pos := []vec.V3{
		{X: 0.3, Y: -0.2, Z: 0.1},
		{X: -0.1, Y: 0.4, Z: -0.2},
		{X: 0.05, Y: 0.05, Z: -0.45},
		{X: -0.35, Y: -0.25, Z: 0.2},
	}
	f.Fuzz(func(t *testing.T, x, y, z float64, deg, prefix uint8, q0, q1, q2, q3 float64) {
		q := []float64{q0, q1, q2, q3}
		for _, v := range q {
			if a := math.Abs(v); math.IsNaN(v) || a > 1e50 || (v != 0 && a < 1e-50) {
				return
			}
		}
		p := int(deg) % (legendre.MaxAccurateDegree + 1)
		pe := int(prefix) % (p + 4)
		e := P2M(pos, q, vec.V3{}, p)
		off := vec.V3{X: x, Y: y, Z: z}
		r := off.Norm()
		if math.IsNaN(r) || r <= 1.05*e.Radius || r > 1e4 {
			return
		}
		sPhi := e.AbsCharge / (r - e.Radius)
		sGrad := sPhi / (r - e.Radius)
		wantPhi, wantGrad := e.EvaluateFieldBuf(off, pe, nil)
		phi, grad := e.EvaluateFieldFused(off, pe)
		if d := math.Abs(phi - wantPhi); !(d <= 1e-13*sPhi) {
			t.Fatalf("p=%d prefix=%d at %v: phi %v, oracle %v (diff %.3g of scale %.3g)", p, pe, off, phi, wantPhi, d, sPhi)
		}
		if d := grad.Sub(wantGrad).Norm(); !(d <= 1e-13*sGrad) {
			t.Fatalf("p=%d prefix=%d at %v: grad %v, oracle %v (diff %.3g of scale %.3g)", p, pe, off, grad, wantGrad, d, sGrad)
		}
	})
}

// TestLocalFusedMatchesOracle: the fused L2P potential and field kernels
// must agree with the table-based oracles to roundoff for every degree up to
// legendre.MaxAccurateDegree. The local expansions come from P2L of random
// far clusters, so they are the real-valued-potential expansions the FMM
// builds; the error scale is the series magnitude, as for M2P.
func TestLocalFusedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for p := 0; p <= legendre.MaxAccurateDegree; p++ {
		for trial := 0; trial < 20; trial++ {
			center := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			dir := vec.FromSpherical(1, math.Acos(2*rng.Float64()-1), 2*math.Pi*rng.Float64())
			srcRad := 0.1 + rng.Float64()
			R := srcRad * (1.5 + 3*rng.Float64()) // nearest source distance >= R - srcRad
			pos, q := randomCluster(rng, 1+rng.Intn(40), center.Add(dir.Scale(R)), srcRad)
			l := NewLocal(center, p)
			var A float64
			for i := range pos {
				l.AddP2L(pos[i], q[i])
				A += math.Abs(q[i])
			}
			near := R - srcRad
			rho := near * 0.9 * rng.Float64()
			x := center.Add(vec.FromSpherical(rho, math.Acos(2*rng.Float64()-1), 2*math.Pi*rng.Float64()))
			sPhi := A / (near - rho)
			sGrad := sPhi / (near - rho)
			want := l.evaluateOracle(x)
			if d := math.Abs(l.Evaluate(x) - want); d > 1e-13*sPhi {
				t.Fatalf("p=%d: L2P potential %v, oracle %v (diff %.3g of scale %.3g)", p, l.Evaluate(x), want, d, sPhi)
			}
			wantPhi, wantGrad := l.evaluateFieldOracle(x)
			phi, grad := l.EvaluateField(x)
			if d := math.Abs(phi - wantPhi); d > 1e-13*sPhi {
				t.Fatalf("p=%d: L2P field phi %v, oracle %v (diff %.3g of scale %.3g)", p, phi, wantPhi, d, sPhi)
			}
			if d := grad.Sub(wantGrad).Norm(); d > 1e-13*sGrad {
				t.Fatalf("p=%d: L2P grad %v, oracle %v (diff %.3g of scale %.3g)", p, grad, wantGrad, d, sGrad)
			}
		}
	}
}

// TestEvaluateFusedAllocs pins the fused M2P and L2P kernels at zero
// allocations.
func TestEvaluateFusedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	center := vec.V3{}
	pos, q := randomCluster(rng, 30, center, 0.5)
	e := P2M(pos, q, center, 8)
	l := e.M2L(vec.V3{X: 3, Y: -1, Z: 2}, 8, 8)
	x := vec.V3{X: 2, Y: 1, Z: -1.5}
	y := vec.V3{X: 3.2, Y: -0.9, Z: 1.8}
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"EvaluateFused", func() { e.EvaluateFused(x, 8) }},
		{"EvaluateFieldFused", func() { e.EvaluateFieldFused(x, 8) }},
		{"Local.Evaluate", func() { l.Evaluate(y) }},
		{"Local.EvaluateField", func() { l.EvaluateField(y) }},
		{"TruncationBoundFast", func() { TruncationBoundFast(1.5, 0.5, 2.0, 8) }},
	} {
		if a := testing.AllocsPerRun(100, k.f); a != 0 {
			t.Errorf("%s allocates %v times per call", k.name, a)
		}
	}
}

// TestTruncationBoundFastMatchesPow: the fast bound must agree with the
// math.Pow form to machine precision, including the r <= a singular case.
func TestTruncationBoundFastMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		A := 10 * rng.Float64()
		a := 0.01 + rng.Float64()
		r := a * (1 + 3*rng.Float64())
		p := rng.Intn(30)
		want := TruncationBound(A, a, r, p)
		got := TruncationBoundFast(A, a, r, p)
		if d := math.Abs(got - want); d > 1e-12*want {
			t.Fatalf("A=%v a=%v r=%v p=%d: fast %v, pow %v", A, a, r, p, got, want)
		}
	}
	if !math.IsInf(TruncationBoundFast(1, 2, 2, 4), 1) {
		t.Fatal("fast bound at r <= a must be +Inf")
	}
	if got := powInt(1.5, 0); got != 1 {
		t.Fatalf("powInt(x, 0) = %v", got)
	}
}

func BenchmarkEvaluatePrefix(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pos, q := randomCluster(rng, 40, vec.V3{}, 0.5)
	e := NewExpansion(vec.V3{}, 6)
	for i := range pos {
		e.AddParticle(pos[i], q[i])
	}
	buf := make([]complex128, 64)
	x := vec.V3{X: 2, Y: 0.5, Z: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluatePrefix(x, 6, buf)
	}
}

func BenchmarkEvaluateFused(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pos, q := randomCluster(rng, 40, vec.V3{}, 0.5)
	e := NewExpansion(vec.V3{}, 6)
	for i := range pos {
		e.AddParticle(pos[i], q[i])
	}
	x := vec.V3{X: 2, Y: 0.5, Z: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluateFused(x, 6)
	}
}

// benchmarkField times one M2P field kernel at degrees 4, 8 and 12 and
// reports ns per series term, with Terms(p) = (p+1)^2 terms per call as in
// the evaluator's eval_ns_per_term.
func benchmarkField(b *testing.B, kernel func(e *Expansion, x vec.V3, p int)) {
	rng := rand.New(rand.NewSource(5))
	pos, q := randomCluster(rng, 40, vec.V3{}, 0.5)
	x := vec.V3{X: 2, Y: 0.5, Z: -1}
	for _, p := range []int{4, 8, 12} {
		e := P2M(pos, q, vec.V3{}, p)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(e, x, p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*Terms(p)), "ns/term")
		})
	}
}

func BenchmarkEvaluateFieldOracle(b *testing.B) {
	buf := make([]complex128, 128)
	benchmarkField(b, func(e *Expansion, x vec.V3, p int) { e.EvaluateFieldBuf(x, p, buf) })
}

func BenchmarkEvaluateFieldFused(b *testing.B) {
	benchmarkField(b, func(e *Expansion, x vec.V3, p int) { e.EvaluateFieldFused(x, p) })
}
