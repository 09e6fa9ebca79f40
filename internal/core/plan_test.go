package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"treecode/internal/mac"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// comparePlanStructure asserts two plan stores hold the same decisions for
// the same leaves: identical node pointers, kinds, and spans in identical
// DFS order. Slacks are excluded — a revalidated plan carries consumed
// slack, a fresh collect carries the current full margin — because slack
// never feeds the evaluation, only the next revalidation.
func comparePlanStructure(t *testing.T, label string, cached, fresh []leafPlan) {
	t.Helper()
	if len(cached) != len(fresh) {
		t.Fatalf("%s: plan stores cover %d vs %d leaves", label, len(cached), len(fresh))
	}
	for i := range cached {
		c, f := &cached[i], &fresh[i]
		if c.leaf != f.leaf {
			t.Fatalf("%s: plan %d targets different leaves", label, i)
		}
		if len(c.entries) != len(f.entries) {
			t.Fatalf("%s: leaf %d plan has %d entries cached, %d fresh", label, i, len(c.entries), len(f.entries))
		}
		for k := range c.entries {
			ce, fe := c.entries[k], f.entries[k]
			if ce.node != fe.node || ce.kind != fe.kind || ce.span != fe.span {
				t.Fatalf("%s: leaf %d entry %d differs: cached {node %p kind %d span %d}, fresh {node %p kind %d span %d}",
					label, i, k, ce.node, ce.kind, ce.span, fe.node, fe.kind, fe.span)
			}
		}
	}
}

// scrambledPositions teleports half the particles uniformly inside the root
// box — enough churn to trip the drift policy into a full rebuild.
func scrambledPositions(e *Evaluator, rng *rand.Rand) []vec.V3 {
	box := e.Tree.Root.Box
	sz := box.Size()
	pos := newPositions(e, nil, 0)
	for i := range pos {
		if i%2 == 0 {
			pos[i] = vec.V3{
				X: box.Lo.X + rng.Float64()*sz.X,
				Y: box.Lo.Y + rng.Float64()*sz.Y,
				Z: box.Lo.Z + rng.Float64()*sz.Z,
			}
		}
	}
	return pos
}

// TestPlanCacheMultiStepDriftBitwise is the plan cache's correctness
// anchor: across a drift trajectory that exercises every maintenance path —
// identity refit, migrating refits that repair plans, and a scramble that
// forces the full-rebuild fallback — the cached-plan evaluation after each
// Evaluator.Update must be bitwise identical to a from-scratch dual-tree
// traversal of the same engine state, and the surviving plans must be
// structurally identical (same decisions, same DFS order) to plans
// collected fresh. This is why the batched mode's Theorem 2 budget
// transfers verbatim to the cached evaluation: the cache changes when
// traversal runs, never what it decides.
func TestPlanCacheMultiStepDriftBitwise(t *testing.T) {
	set, err := points.Generate(points.Plummer, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	cfg := Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Workers: 2, Obs: col}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Potentials() // build every leaf's plan

	rng := rand.New(rand.NewSource(33))
	sigmas := []float64{0, 1e-3, 1e-3, 2e-3, -1} // -1: scramble -> full rebuild
	var sawRefit, sawFull bool
	for step, sigma := range sigmas {
		pos := newPositions(e, rng, sigma)
		if sigma < 0 {
			pos = scrambledPositions(e, rng)
		}
		kind, err := e.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case RebuildRefit:
			sawRefit = true
		case RebuildFull:
			sawFull = true
		}
		label := fmt.Sprintf("step %d (%v)", step, kind)

		phiCached, stCached := e.Potentials()
		// From-scratch reference on the identical engine state: drop the
		// store, re-evaluate (which re-collects every plan), then restore
		// the cached store so the trajectory keeps exercising repair.
		cached := e.plans
		e.plans = nil
		phiFresh, stFresh := e.Potentials()
		comparePlanStructure(t, label, cached, e.plans)
		bitsEqual(t, phiCached, phiFresh, label)
		if stCached.Terms != stFresh.Terms || stCached.PC != stFresh.PC || stCached.PP != stFresh.PP {
			t.Fatalf("%s: stats diverge: cached {Terms %d PC %d PP %d}, fresh {Terms %d PC %d PP %d}",
				label, stCached.Terms, stCached.PC, stCached.PP, stFresh.Terms, stFresh.PC, stFresh.PP)
		}
		e.plans = cached
	}
	if !sawRefit || !sawFull {
		t.Fatalf("trajectory missed a maintenance path: refit=%v full=%v", sawRefit, sawFull)
	}
	pm := col.Metrics().Plan
	if pm.LeafBuilds == 0 || pm.LeafHits == 0 || pm.LeafRepairs == 0 {
		t.Fatalf("trajectory missed a plan pathway: %+v", pm)
	}
	if pm.Drops == 0 {
		t.Fatalf("full rebuild did not drop the plan store: %+v", pm)
	}
	if pm.EntriesReused == 0 {
		t.Fatalf("no plan entries reused across the drift run: %+v", pm)
	}
}

// TestPlanCacheSetChargesKeepsPlans pins the invalidation lattice's finest
// level: recharging moves no geometry, so plans survive SetCharges intact
// and the following evaluation is all hits.
func TestPlanCacheSetChargesKeepsPlans(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 1000, 19)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	e, err := New(set, Config{Method: Adaptive, Degree: 4, Workers: 2, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	e.Potentials()
	builds := col.Metrics().Plan.LeafBuilds
	if builds == 0 {
		t.Fatal("first evaluation built no plans")
	}
	q := make([]float64, set.N())
	for i := range q {
		q[i] = float64(i%7) - 3.1
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	e.Potentials()
	pm := col.Metrics().Plan
	if pm.LeafBuilds != builds || pm.LeafRepairs != 0 {
		t.Fatalf("SetCharges disturbed the plan store: %+v (want builds pinned at %d, zero repairs)", pm, builds)
	}
	if pm.LeafHits != builds {
		t.Fatalf("post-recharge evaluation hit %d plans, want all %d", pm.LeafHits, builds)
	}
}

// TestPlanEntrySetMatchesReferenceTraversal checks a built plan against an
// independent recursive classification using only the boolean sphere tests
// — the API the slack-sign classification must reproduce exactly.
func TestPlanEntrySetMatchesReferenceTraversal(t *testing.T) {
	for _, m := range []mac.MAC{mac.Alpha{Alpha: 0.6}, mac.BoxAlpha{Alpha: 0.8}, mac.MinDist{Alpha: 0.7}} {
		t.Run(m.String(), func(t *testing.T) {
			set, err := points.Generate(points.MultiGauss, 1100, 7)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(set, Config{Method: Adaptive, Degree: 3, Alpha: 0.5, MAC: m})
			if err != nil {
				t.Fatal(err)
			}
			e.Potentials()
			smac := e.Cfg.MAC
			for li, pl := range e.plans {
				var want []planEntry
				var ref func(n *tree.Node)
				ref = func(n *tree.Node) {
					c, rho := pl.leaf.Centroid, pl.leaf.BRadius
					switch {
					case smac.AcceptSphere(c, rho, n):
						want = append(want, planEntry{node: n, kind: planM2P, span: 1})
					case !smac.RejectSphere(c, rho, n):
						want = append(want, planEntry{node: n, kind: planBand, span: 1})
					case n.IsLeaf():
						want = append(want, planEntry{node: n, kind: planP2P, span: 1})
					default:
						at := len(want)
						want = append(want, planEntry{node: n, kind: planOpen})
						for _, ch := range n.Children {
							ref(ch)
						}
						want[at].span = int32(len(want) - at)
					}
				}
				ref(e.Tree.Root)
				if len(pl.entries) != len(want) {
					t.Fatalf("leaf %d: plan has %d entries, reference traversal %d", li, len(pl.entries), len(want))
				}
				for k := range want {
					g, w := pl.entries[k], want[k]
					if g.node != w.node || g.kind != w.kind || g.span != w.span {
						t.Fatalf("leaf %d entry %d: plan {node %p kind %d span %d}, reference {node %p kind %d span %d}",
							li, k, g.node, g.kind, g.span, w.node, w.kind, w.span)
					}
				}
			}
		})
	}
}

// TestPlanCacheRepairRace drives concurrent plan repair under the race
// detector: every Update invalidates a scattering of entries, and the next
// evaluation fans the repairs out over the work-stealing pool — workers own
// disjoint plan slots, so the pass must be lock-free-clean. Bitwise
// agreement with a serial evaluation of a twin engine double-checks that
// stealing never reorders a repaired plan's summation.
func TestPlanCacheRepairRace(t *testing.T) {
	set, err := points.Generate(points.Plummer, 1200, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Method: Adaptive, Degree: 3, Alpha: 0.5}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.PotentialsWithWorkers(2 * runtime.GOMAXPROCS(0))
	twin.PotentialsWithWorkers(1)
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 3; step++ {
		pos := newPositions(e, rng, 1.5e-3)
		if _, err := e.Update(pos); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Update(pos); err != nil {
			t.Fatal(err)
		}
		phi, _ := e.PotentialsWithWorkers(2 * runtime.GOMAXPROCS(0))
		want, _ := twin.PotentialsWithWorkers(1)
		bitsEqual(t, phi, want, fmt.Sprintf("race step %d", step))
	}
}
