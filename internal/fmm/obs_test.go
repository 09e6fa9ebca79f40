package fmm

import (
	"strings"
	"testing"

	"treecode/internal/core"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/vec"
)

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
// the fmm prefix: build (tree, degrees) then upward, a refit that moved a
// particle across leaves (tree, degrees, upward — no plan cache), and a
// recharge (stats, upward).
func TestLifecycleSpanTree(t *testing.T) {
	set, err := points.Generate(points.Uniform, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	e, err := New(set, Config{Method: core.Adaptive, Degree: 3, LeafCap: 8, Obs: col})
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
	if kind != core.RebuildRefit {
		t.Fatalf("one migrant took the %v path", kind)
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	got := spanShapes(col.Spans())
	want := []string{
		"fmm/build{tree,degrees}",
		"fmm/upward",
		"fmm/refit{tree,degrees,upward}",
		"fmm/recharge{stats,upward}",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("span tree\n got %q\nwant %q", got, want)
	}
}
