package multipole

import (
	"math"
	"math/rand"
	"testing"

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

// TestEvaluateFusedAllocs pins the fused kernel at zero allocations.
func TestEvaluateFusedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	center := vec.V3{}
	pos, q := randomCluster(rng, 30, center, 0.5)
	e := NewExpansion(center, 8)
	for i := range pos {
		e.AddParticle(pos[i], q[i])
	}
	x := vec.V3{X: 2, Y: 1, Z: -1.5}
	if a := testing.AllocsPerRun(100, func() {
		e.EvaluateFused(x, 8)
	}); a != 0 {
		t.Fatalf("EvaluateFused allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		TruncationBoundFast(1.5, 0.5, 2.0, 8)
	}); a != 0 {
		t.Fatalf("TruncationBoundFast allocates %v times per call", a)
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
