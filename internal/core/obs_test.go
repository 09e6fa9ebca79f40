package core

import (
	"math"
	"strings"
	"testing"

	"treecode/internal/legendre"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// TestObsMetricsMatchStats cross-checks the obs interaction census against
// the evaluator's own Stats: both count the same walk.
func TestObsMetricsMatchStats(t *testing.T) {
	set, err := points.GenerateCharged(points.Uniform, 3000, 1, 3000, false)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	e, err := New(set, Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	_, st := e.Potentials()

	m := col.Metrics()
	if m.Accepts() != st.PC {
		t.Fatalf("obs accepts %d != stats PC %d", m.Accepts(), st.PC)
	}
	if m.M2PTerms() != st.Terms {
		t.Fatalf("obs terms %d != stats terms %d", m.M2PTerms(), st.Terms)
	}
	if m.PPPairs() != st.PP {
		t.Fatalf("obs pp %d != stats PP %d", m.PPPairs(), st.PP)
	}
	if m.Rejects() == 0 {
		t.Fatal("no MAC rejections recorded")
	}
	// Degree histogram covers [Degree, MaxDegree seen] and sums to PC.
	var hist int64
	for _, c := range m.DegreeHist {
		hist += c
	}
	if hist != st.PC {
		t.Fatalf("degree histogram sums to %d, want %d", hist, st.PC)
	}
	if int(st.MaxDegree) >= len(m.DegreeHist) || m.DegreeHist[st.MaxDegree] == 0 {
		t.Fatalf("max degree %d missing from histogram", st.MaxDegree)
	}
	// Opening ratios of accepted interactions obey the alpha criterion.
	if m.OpenRatio.N != st.PC {
		t.Fatalf("ratio samples %d != PC %d", m.OpenRatio.N, st.PC)
	}
	if m.OpenRatio.Max > 0.5+1e-12 || m.OpenRatio.Min < 0 {
		t.Fatalf("opening ratios outside (0, alpha]: min %v max %v", m.OpenRatio.Min, m.OpenRatio.Max)
	}
	if mean := m.OpenRatio.Mean(); math.IsNaN(mean) || mean <= 0 || mean > 0.5 {
		t.Fatalf("opening ratio mean implausible: %v", mean)
	}
	// The Theorem 2 budget is positive and at least the Theorem 1 BoundSum
	// (Theorem 2 replaces a/r by its worst case alpha, so it is looser).
	if m.BudgetTotal() <= 0 {
		t.Fatal("no Theorem 2 budget accumulated")
	}
	if m.BudgetTotal() < st.BoundSum {
		t.Fatalf("Theorem 2 budget %v below Theorem 1 sum %v", m.BudgetTotal(), st.BoundSum)
	}
	// Spans: one build (tree + degrees), one upward pass, and one
	// evaluation with workers.
	spans := col.Spans()
	var haveBuild, haveUpward, haveEval bool
	for _, s := range spans {
		switch s.Name {
		case "core/build":
			haveBuild = true
			if len(s.Children) != 2 {
				t.Fatalf("build span has %d children, want 2 (tree, degrees)", len(s.Children))
			}
		case "core/upward":
			haveUpward = true
		case "core/potentials":
			haveEval = true
			if len(s.Children) == 0 {
				t.Fatal("evaluation span has no worker spans")
			}
		}
	}
	if !haveBuild || !haveUpward || !haveEval {
		t.Fatalf("missing phase spans: build=%v upward=%v eval=%v", haveBuild, haveUpward, haveEval)
	}
}

// TestObsDisabledIsIdentical verifies the nil-collector path computes the
// same result (the recording is observation only).
func TestObsDisabledIsIdentical(t *testing.T) {
	set, err := points.GenerateCharged(points.Gaussian, 2000, 2, 2000, false)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(set, Config{Method: Adaptive, Degree: 3, Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	instr, err := New(set, Config{Method: Adaptive, Degree: 3, Alpha: 0.6, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	a, sa := plain.Potentials()
	b, sb := instr.Potentials()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("potential %d differs with obs enabled: %v vs %v", i, a[i], b[i])
		}
	}
	if sa.Terms != sb.Terms || sa.PC != sb.PC || sa.PP != sb.PP {
		t.Fatal("stats differ with obs enabled")
	}
}

// TestObsFieldsRecorded covers the field-evaluation path.
func TestObsFieldsRecorded(t *testing.T) {
	set, err := points.GenerateCharged(points.Uniform, 1500, 3, 1500, false)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	e, err := New(set, Config{Method: Original, Degree: 4, Alpha: 0.5, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	_, _, st := e.Fields()
	m := col.Metrics()
	if m.Accepts() != st.PC || m.PPPairs() != st.PP {
		t.Fatalf("field path census mismatch: %d/%d vs %d/%d", m.Accepts(), m.PPPairs(), st.PC, st.PP)
	}
}

// TestObsDegreeClampSurfaced forces Theorem 3 selections past the Legendre
// stability cap and checks the clamp events reach the collector.
func TestObsDegreeClampSurfaced(t *testing.T) {
	set, err := points.GenerateCharged(points.Uniform, 4000, 1, 4000, false)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	// Alpha near 1 makes the per-level degree growth huge, so top clusters
	// request degrees far beyond the cap; MaxDegree is set above the cap so
	// only the stability clamp can stop them.
	e, err := New(set, Config{Method: Adaptive, Degree: 4, MaxDegree: 100, Alpha: 0.95, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	m := col.Metrics()
	if m.DegreeClamps == 0 {
		t.Fatal("no degree clamp events surfaced")
	}
	e.Tree.Walk(func(n *tree.Node) {
		if n.Degree > legendre.MaxAccurateDegree {
			t.Fatalf("node degree %d escaped the stability cap", n.Degree)
		}
	})
}

// spanShapes renders the top-level spans as name{child,child,...}, the
// contract perfbench keys its per-layer time metrics on.
func spanShapes(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
		if len(sp.Children) > 0 {
			names := make([]string, len(sp.Children))
			for j, c := range sp.Children {
				names[j] = c.Name
			}
			out[i] += "{" + strings.Join(names, ",") + "}"
		}
	}
	return out
}

// TestLifecycleSpanTree pins the span names of the engine lifecycle under
// the core prefix: build (tree, degrees) then upward, a refit that moved a
// particle across leaves (tree, degrees, plans, upward), and a recharge
// (stats, upward).
func TestLifecycleSpanTree(t *testing.T) {
	set, err := points.Generate(points.Uniform, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	e, err := New(set, Config{Method: Adaptive, Degree: 3, Eval: EvalBatched, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	tr := e.Tree
	pos := make([]vec.V3, len(tr.Pos))
	q := make([]float64, len(tr.Q))
	for i, orig := range tr.Perm {
		pos[orig], q[orig] = tr.Pos[i], tr.Q[i]
	}
	// One migrant: the first particle in tree order joins the last leaf.
	first, last := tr.Perm[0], tr.Perm[len(tr.Perm)-1]
	pos[first] = pos[last].Add(vec.V3{X: 1e-9})
	kind, err := e.Update(pos)
	if err != nil {
		t.Fatal(err)
	}
	if kind != RebuildRefit {
		t.Fatalf("one migrant took the %v path", kind)
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	got := spanShapes(col.Spans())
	want := []string{
		"core/build{tree,degrees}",
		"core/upward",
		"core/refit{tree,degrees,plans,upward}",
		"core/recharge{stats,upward}",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("span tree\n got %q\nwant %q", got, want)
	}
}
