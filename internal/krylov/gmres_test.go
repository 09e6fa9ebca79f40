package krylov

import (
	"math"
	"math/rand"
	"testing"

	"treecode/internal/linalg"
)

func randomSystem(rng *rand.Rand, n int, dom float64) (*linalg.Dense, []float64, []float64) {
	a := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			if i == j {
				v += dom
			}
			a.Set(i, j, v)
		}
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MatVec(b, xTrue)
	return a, b, xTrue
}

func TestGMRESSolvesWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{5, 30, 120} {
		a, b, xTrue := randomSystem(rng, n, float64(n))
		x := make([]float64, n)
		res, err := GMRES(a, b, x, Options{Restart: 10, MaxIters: 2000, Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: did not converge, residual %v", n, res.Residual)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestGMRESMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b, _ := randomSystem(rng, 50, 60)
	f, err := a.Factor()
	if err != nil {
		t.Fatal(err)
	}
	xLU := append([]float64(nil), b...)
	f.SolveInPlace(xLU)
	x := make([]float64, 50)
	if _, err := GMRES(a, b, x, Options{Restart: 20, MaxIters: 1000, Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xLU[i]) > 1e-8*(1+math.Abs(xLU[i])) {
			t.Fatalf("GMRES and LU disagree at %d: %v vs %v", i, x[i], xLU[i])
		}
	}
}

func TestGMRESIdentity(t *testing.T) {
	// A = I converges in one iteration regardless of restart.
	n := 40
	id := OperatorFunc(func(dst, src []float64) { copy(dst, src) })
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := make([]float64, n)
	res, err := GMRES(id, b, x, Options{Restart: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 4 {
		t.Fatalf("identity solve took %d iterations", res.Iterations)
	}
	for i := range x {
		if math.Abs(x[i]-b[i]) > 1e-10 {
			t.Fatal("identity solution wrong")
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := linalg.NewDense(3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	a.Set(2, 2, 1)
	x := []float64{5, 5, 5}
	res, err := GMRES(a, make([]float64, 3), x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("zero rhs should converge")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs should give zero solution")
		}
	}
}

func TestGMRESInitialGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, xTrue := randomSystem(rng, 30, 40)
	// Start at the exact solution: must converge immediately.
	x := append([]float64(nil), xTrue...)
	res, err := GMRES(a, b, x, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 1 {
		t.Fatalf("exact initial guess took %d iterations, residual %v", res.Iterations, res.Residual)
	}
}

func TestGMRESRespectsMaxIters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Poorly conditioned: tiny diagonal dominance, tight tolerance, low cap.
	a, b, _ := randomSystem(rng, 60, 0.5)
	x := make([]float64, 60)
	res, err := GMRES(a, b, x, Options{Restart: 5, MaxIters: 12, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 13 {
		t.Fatalf("exceeded MaxIters: %d", res.Iterations)
	}
	if res.Converged && res.Residual > 1e-14 {
		t.Fatal("inconsistent convergence flag")
	}
}

func TestGMRESLengthMismatch(t *testing.T) {
	a := linalg.NewDense(3)
	if _, err := GMRES(a, make([]float64, 3), make([]float64, 2), Options{}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestResidualHistoryMonotoneWithinCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, _ := randomSystem(rng, 40, 50)
	x := make([]float64, 40)
	res, err := GMRES(a, b, x, Options{Restart: 40, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Within a single (un-restarted) cycle GMRES residuals are
	// non-increasing, up to roundoff noise near the attainable floor.
	for i := 1; i < len(res.History); i++ {
		if res.History[i-1] < 1e-11 {
			continue
		}
		if res.History[i] > res.History[i-1]*(1+1e-6) {
			t.Fatalf("residual increased within cycle at %d: %v > %v",
				i, res.History[i], res.History[i-1])
		}
	}
}

// TestGMRESKeepsArnoldiDepth: on a nonsingular system of order n <= m,
// GMRES(m) is full GMRES, which ends in at most n Arnoldi steps. The matrix
// is a single Jordan-like block, I + 2 superdiagonal: nonsingular and far
// from normal, so GMRES(1) stagnates on it. The solve must reach 1e-10
// within n+1 products (one residual, then Arnoldi steps), in one cycle of
// several Arnoldi steps. The operator counts the cycles: each starts with a
// product applied to the iterate x itself.
func TestGMRESKeepsArnoldiDepth(t *testing.T) {
	const n = 8
	a := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		if i+1 < n {
			a.Set(i, i+1, 2)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) - 0.5
	}
	x := make([]float64, n)
	cycles := 0
	op := OperatorFunc(func(dst, src []float64) {
		if &src[0] == &x[0] {
			cycles++
		}
		a.Apply(dst, src)
	})
	res, err := GMRES(op, b, x, Options{Restart: 10, MaxIters: n + 1, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > n+1 {
		t.Fatalf("converged %v after %d products (cap %d), residual %.3g; history %v",
			res.Converged, res.Iterations, n+1, res.Residual, res.History)
	}
	if len(res.History) != res.Iterations {
		t.Fatalf("history has %d entries for %d products", len(res.History), res.Iterations)
	}
	if steps := res.Iterations - cycles; cycles != 1 || steps < 2 {
		t.Fatalf("%d cycles with %d Arnoldi steps in all; history %v", cycles, steps, res.History)
	}
	// The estimate is the true residual: check it against b - A x.
	r := make([]float64, n)
	a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if rel := linalg.Norm2(r) / linalg.Norm2(b); rel > 1e-9 {
		t.Fatalf("true relative residual %.3g", rel)
	}
}

func TestGivens(t *testing.T) {
	cases := [][2]float64{{3, 4}, {-3, 4}, {0, 2}, {2, 0}, {-2, 0}, {1e-8, 1e8}}
	for _, c := range cases {
		a, b := c[0], c[1]
		cs, sn := givens(a, b)
		if r := -sn*a + cs*b; math.Abs(r) > 1e-9*(1+math.Abs(a)+math.Abs(b)) {
			t.Errorf("givens(%v,%v) does not annihilate: %v", a, b, r)
		}
		if math.Abs(cs*cs+sn*sn-1) > 1e-12 {
			t.Errorf("givens(%v,%v) not orthogonal", a, b)
		}
		if rr := cs*a + sn*b; rr < 0 {
			t.Errorf("givens(%v,%v) rotated onto negative axis", a, b)
		}
	}
}
