package bem

import (
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/krylov"
	"treecode/internal/linalg"
	"treecode/internal/mesh"
	"treecode/internal/stats"
	"treecode/internal/vec"
)

func sphereOp(t testing.TB, subdiv int, cfg *core.Config) *Operator {
	t.Helper()
	m := mesh.Sphere(subdiv, 1, vec.V3{})
	o, err := New(m, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestSourceCounts(t *testing.T) {
	o := sphereOp(t, 1, nil)
	if len(o.Sources) != o.Mesh.NumTris()*6 {
		t.Fatalf("sources = %d, want %d", len(o.Sources), o.Mesh.NumTris()*6)
	}
	// Weights of each source sum to w_g * area (partition of unity).
	var total float64
	for _, s := range o.Sources {
		total += s.Weight[0] + s.Weight[1] + s.Weight[2]
	}
	if math.Abs(total-o.Mesh.TotalArea()) > 1e-9*total {
		t.Fatalf("source weights sum to %v, want total area %v", total, o.Mesh.TotalArea())
	}
}

func TestDenseMatchesApply(t *testing.T) {
	o := sphereOp(t, 1, nil)
	n := o.N()
	d := o.Dense()
	src := make([]float64, n)
	for i := range src {
		src[i] = math.Sin(float64(3 * i))
	}
	want := make([]float64, n)
	o.Apply(want, src)
	got := make([]float64, n)
	d.MatVec(got, src)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("dense and direct disagree at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestTreeApplyMatchesDirect(t *testing.T) {
	cfg := &core.Config{Method: core.Adaptive, Degree: 8, Alpha: 0.4}
	o := sphereOp(t, 2, cfg)
	n := o.N()
	src := make([]float64, n)
	for i := range src {
		src[i] = 1 + 0.3*math.Cos(float64(i))
	}
	want := make([]float64, n)
	o.Apply(want, src)
	got := make([]float64, n)
	st, err := o.TreeApply(got, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Terms == 0 {
		t.Error("treecode did no multipole work")
	}
	if re := stats.RelErr2(got, want); re > 1e-4 {
		t.Fatalf("treecode matvec error %v", re)
	}
}

func TestTreeApplyWithoutTree(t *testing.T) {
	o := sphereOp(t, 0, nil)
	dst := make([]float64, o.N())
	if _, err := o.TreeApply(dst, dst); err == nil {
		t.Fatal("TreeApply without treecode should error")
	}
	if o.Evaluator() != nil {
		t.Fatal("Evaluator should be nil")
	}
}

// The physics check: solving V sigma = 1 on the unit sphere gives the
// uniform density sigma = 1/(4 pi), and the total charge (capacitance in
// Gaussian units) equals the radius, C = R = 1.
func TestSphereCapacitance(t *testing.T) {
	cfg := &core.Config{Method: core.Adaptive, Degree: 7, Alpha: 0.4}
	o := sphereOp(t, 2, cfg)
	n := o.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res, err := krylov.GMRES(krylov.OperatorFunc(o.TreeOperator()), b, x, krylov.Options{
		Restart: 10, MaxIters: 400, Tol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("GMRES did not converge: residual %v after %d products", res.Residual, res.Iterations)
	}
	want := 1 / (4 * math.Pi)
	for i, s := range x {
		if math.Abs(s-want) > 0.08*want {
			t.Fatalf("density[%d] = %v, want ~%v", i, s, want)
		}
	}
	c := o.IntegrateDensity(x)
	if math.Abs(c-1) > 0.03 {
		t.Fatalf("capacitance = %v, want ~1", c)
	}
	t.Logf("sphere capacitance %.4f (exact 1), GMRES %d products", c, res.Iterations)
}

// The Table 3 shape at miniature scale: the adaptive matvec is closer to
// the high-degree reference than the fixed-degree original at the same
// minimum degree.
func TestAdaptiveMatvecBeatsOriginal(t *testing.T) {
	m := mesh.Propeller(3, 1)
	ref, err := New(m, 6, &core.Config{Method: core.Original, Degree: 12, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := New(m, 6, &core.Config{Method: core.Original, Degree: 3, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	adpt, err := New(m, 6, &core.Config{Method: core.Adaptive, Degree: 3, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumVerts()
	src := make([]float64, n)
	for i := range src {
		src[i] = 1 + 0.5*math.Sin(float64(i))
	}
	want := make([]float64, n)
	if _, err := ref.TreeApply(want, src); err != nil {
		t.Fatal(err)
	}
	gotO := make([]float64, n)
	gotA := make([]float64, n)
	if _, err := orig.TreeApply(gotO, src); err != nil {
		t.Fatal(err)
	}
	if _, err := adpt.TreeApply(gotA, src); err != nil {
		t.Fatal(err)
	}
	errO := stats.RelErr2(gotO, want)
	errA := stats.RelErr2(gotA, want)
	if errA >= errO {
		t.Errorf("adaptive matvec error %v not below original %v", errA, errO)
	}
	t.Logf("matvec errors vs degree-12 reference: original %.3g, adaptive %.3g", errO, errA)
}

func TestGMRESWithDenseBEM(t *testing.T) {
	// Solve the same sphere problem with the dense matrix and LU-check it.
	o := sphereOp(t, 1, nil)
	n := o.N()
	d := o.Dense()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res, err := krylov.GMRES(d, b, x, krylov.Options{Restart: 10, MaxIters: 500, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("dense GMRES did not converge: %v", res.Residual)
	}
	f, err := d.Factor()
	if err != nil {
		t.Fatal(err)
	}
	xLU := append([]float64(nil), b...)
	f.SolveInPlace(xLU)
	for i := range x {
		if math.Abs(x[i]-xLU[i]) > 1e-6*(1+math.Abs(xLU[i])) {
			t.Fatalf("GMRES and LU disagree at %d", i)
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	m := mesh.Sphere(0, 1, vec.V3{})
	if _, err := New(m, 5, nil); err == nil {
		t.Error("unsupported rule should fail")
	}
	bad := &mesh.Mesh{Verts: []vec.V3{{}}, Tris: [][3]int{{0, 0, 0}}}
	if _, err := New(bad, 3, nil); err == nil {
		t.Error("invalid mesh should fail")
	}
}

func TestIntegrateDensityConstant(t *testing.T) {
	o := sphereOp(t, 1, nil)
	sigma := make([]float64, o.N())
	for i := range sigma {
		sigma[i] = 2
	}
	got := o.IntegrateDensity(sigma)
	want := 2 * o.Mesh.TotalArea()
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("IntegrateDensity = %v, want %v", got, want)
	}
}

var _ = linalg.Dot // linalg used via krylov paths above
