package engine

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"treecode/internal/harmonics"
	"treecode/internal/multipole"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// checkUpward asserts the stored-degree invariants of every node: the
// expansion is stored at UpDegree >= Degree (so evaluation at Degree never
// clamps), an M2M-built node's children are all stored at least as high,
// its coefficients up to Degree match a fresh P2M of its range, its charge
// and radius are Theorem 1-safe, and UpwardTerms is the sum the cost pass
// chose.
func checkUpward(t *testing.T, e *Engine, label string) {
	t.Helper()
	tr := e.Tree
	var terms int64
	var bad string
	tr.Walk(func(n *tree.Node) {
		fail := func(format string, args ...any) {
			if bad == "" {
				bad = fmt.Sprintf("node level %d [%d,%d): ", n.Level, n.Start, n.End) + fmt.Sprintf(format, args...)
			}
		}
		mp := n.Mp
		if mp == nil {
			fail("no expansion")
			return
		}
		if mp.Degree != n.UpDegree || n.UpDegree < n.Degree || n.UpDegree > e.maxP {
			fail("stored degree %d, UpDegree %d, Degree %d, max %d", mp.Degree, n.UpDegree, n.Degree, e.maxP)
		}
		if n.IsLeaf() && !n.UpDirect {
			fail("leaf built by M2M")
		}
		if !n.UpDirect {
			for _, c := range n.Children {
				if c.UpDegree < n.UpDegree {
					fail("M2M at %d from a child stored at %d", n.UpDegree, c.UpDegree)
				}
			}
		}
		if mp.Center != n.Center {
			fail("center %v, node center %v", mp.Center, n.Center)
		}
		if mp.Radius > n.Radius {
			fail("radius %v above the node's %v", mp.Radius, n.Radius)
		}
		want := multipole.NewExpansion(n.Center, n.Degree)
		for i := n.Start; i < n.End; i++ {
			want.AddParticleAt(tr.Pos[i], tr.Q[i], nil)
		}
		var num, den float64
		for i, c := range want.Coeff {
			num += sq(cmplx.Abs(mp.Coeff[i] - c))
			den += sq(cmplx.Abs(c))
		}
		if num > 1e-24*den {
			fail("coefficients off a fresh P2M by %.3g rel", math.Sqrt(num/den))
		}
		if math.Abs(mp.AbsCharge-want.AbsCharge) > 1e-12*want.AbsCharge {
			fail("A = %v, particles sum to %v", mp.AbsCharge, want.AbsCharge)
		}
		if n.UpDirect {
			terms += int64(n.Count()) * multipole.Terms(n.UpDegree)
		} else {
			terms += multipole.Terms(n.UpDegree)
		}
	})
	if bad != "" {
		t.Fatalf("%s: %s", label, bad)
	}
	if terms != e.UpwardTerms() {
		t.Fatalf("%s: UpwardTerms %d, the chosen builds sum to %d", label, e.UpwardTerms(), terms)
	}
}

func sq(x float64) float64 { return x * x }

// TestUpwardInvariants checks the stored-degree invariants after every
// lifecycle path — construction, a refit with migrants, the rebuild
// fallback and a recharge — for both methods on clustered and uniform sets.
func TestUpwardInvariants(t *testing.T) {
	for _, dist := range []points.Distribution{points.Plummer, points.Uniform} {
		for _, adaptive := range []bool{false, true} {
			label := fmt.Sprintf("%s adaptive=%v", dist, adaptive)
			set, err := points.GenerateCharged(dist, 3000, 7, 1, dist == points.Uniform)
			if err != nil {
				t.Fatal(err)
			}
			migrants := -1
			e, err := New(set, Config{Name: "test", Adaptive: adaptive, Alpha: 0.5, Degree: 4, MaxDegree: 24,
				LeafCap: 8, Workers: 3}, Hooks{Refit: func(_ *obs.Span, m int) { migrants = m }})
			if err != nil {
				t.Fatal(err)
			}
			checkUpward(t, e, label+" new")

			// Crowd 40 particles next to particle 0: their leaves lose
			// them, and particle 0's leaf overflows and splits.
			pos := make([]vec.V3, set.N())
			for i, p := range set.Particles {
				pos[i] = p.Pos
			}
			for k := 1; k <= 40; k++ {
				i := k * (set.N() / 41)
				pos[i] = pos[0].Add(vec.V3{X: 1e-4 * float64(k), Y: -5e-5 * float64(k), Z: 3e-5})
			}
			kind, err := e.Update(pos)
			if err != nil {
				t.Fatal(err)
			}
			if kind != RebuildRefit || migrants <= 0 {
				t.Fatalf("%s: crowding took %v with %d migrants, want a refit with migrants", label, kind, migrants)
			}
			checkUpward(t, e, label+" refit")

			for i := range pos {
				pos[i] = pos[i].Scale(3)
			}
			if kind, err = e.Update(pos); err != nil || kind != RebuildFull {
				t.Fatalf("%s: scaling took %v (%v), want the rebuild fallback", label, kind, err)
			}
			checkUpward(t, e, label+" fallback")

			q := make([]float64, set.N())
			for i, p := range set.Particles {
				q[i] = p.Charge * (1.5 + math.Sin(float64(i)))
			}
			if err := e.SetCharges(q); err != nil {
				t.Fatal(err)
			}
			checkUpward(t, e, label+" recharge")
		}
	}
}

// modelCost prices one upward pass under the cost pass's model, for a
// plan given as each node's stored degree and build path.
func modelCost(tr *tree.Tree, plan func(n *tree.Node) (int, bool)) int64 {
	var c int64
	tr.Walk(func(n *tree.Node) {
		d, direct := plan(n)
		l := int64(harmonics.Len(d))
		if direct {
			c += p2mWeight * int64(n.Count()) * l
		} else {
			c += int64(len(n.Children)) * l * l
		}
	})
	return c
}

// TestCostPassBeatsFixedPlans: the plan the cost pass picks is never
// dearer, under its own model, than the two fixed plans it replaces or
// mixes — every node by P2M at its own degree, and the carried-degree M2M
// chain (each node at the largest degree on its root path, M2M above the
// leaves) — and it is a valid plan.
func TestCostPassBeatsFixedPlans(t *testing.T) {
	for _, dist := range []points.Distribution{points.Plummer, points.Uniform} {
		set, err := points.Generate(dist, 5000, 3)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(set, Config{Name: "test", Adaptive: true, Alpha: 0.5, Degree: 4, MaxDegree: 24, LeafCap: 8}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		checkUpward(t, e, string(dist))
		tr := e.Tree
		chosen := modelCost(tr, func(n *tree.Node) (int, bool) { return n.UpDegree, n.UpDirect })
		own := modelCost(tr, func(n *tree.Node) (int, bool) { return n.Degree, true })
		carry := map[*tree.Node]int{}
		var down func(n *tree.Node, p int)
		down = func(n *tree.Node, p int) {
			carry[n] = max(p, n.Degree)
			for _, c := range n.Children {
				down(c, carry[n])
			}
		}
		down(tr.Root, 0)
		carried := modelCost(tr, func(n *tree.Node) (int, bool) { return carry[n], n.IsLeaf() })
		if chosen > own || chosen > carried {
			t.Fatalf("%s: chosen plan costs %d, all-P2M %d, carried M2M %d", dist, chosen, own, carried)
		}
		t.Logf("%s: model cost chosen %d, all-P2M at own degree %d, carried M2M %d", dist, chosen, own, carried)
	}
}
