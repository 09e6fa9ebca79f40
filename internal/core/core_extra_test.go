package core

import (
	"math"
	"testing"

	"treecode/internal/direct"
	"treecode/internal/mac"
	"treecode/internal/points"
	"treecode/internal/stats"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

func TestMACOverride(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 1500, 20)
	want := direct.SelfPotentials(set, 0)
	for _, m := range []mac.MAC{
		mac.Alpha{Alpha: 0.5},
		mac.BoxAlpha{Alpha: 0.5},
		mac.MinDist{Alpha: 0.5},
	} {
		e, err := New(set, Config{Degree: 6, Alpha: 0.5, MAC: m})
		if err != nil {
			t.Fatal(err)
		}
		got, st := e.Potentials()
		if re := stats.RelErr2(got, want); re > 1e-3 {
			t.Errorf("%s: error %v", m, re)
		}
		if st.PC == 0 {
			t.Errorf("%s: no cluster interactions", m)
		}
	}
}

func TestMaxDegreeClamp(t *testing.T) {
	// A wildly unbalanced charge distribution forces large adaptive
	// degrees; MaxDegree must cap them.
	set, _ := points.Generate(points.Uniform, 2000, 21)
	for i := range set.Particles {
		set.Particles[i].Charge = 1e-6
	}
	set.Particles[0].Charge = 1e6
	e, err := New(set, Config{Method: Adaptive, Degree: 3, MaxDegree: 7, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	e.Tree.Walk(func(n *tree.Node) {
		if n.Degree > 7 || n.Degree < 3 {
			t.Fatalf("degree %d outside [3,7]", n.Degree)
		}
	})
	_, st := e.Potentials()
	if st.MaxDegree > 7 {
		t.Fatalf("evaluated degree %d above clamp", st.MaxDegree)
	}
}

func TestLeafCapAffectsInteractionSplit(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 4000, 22)
	small, _ := New(set, Config{Degree: 4, LeafCap: 2})
	big, _ := New(set, Config{Degree: 4, LeafCap: 64})
	_, stS := small.Potentials()
	_, stB := big.Potentials()
	// Heavier leaves shift work from cluster interactions to direct pairs.
	if stB.PP <= stS.PP {
		t.Errorf("bigger leaves should do more direct work: %d vs %d", stB.PP, stS.PP)
	}
	if stB.TreeHeight >= stS.TreeHeight {
		t.Errorf("bigger leaves should give a shallower tree")
	}
}

func TestMixedSignCharges(t *testing.T) {
	// Zero-net-charge systems: clusters have small net charge A relative to
	// particle count; both methods must remain accurate, and adaptive
	// degree selection must not blow up.
	set, _ := points.GenerateCharged(points.Uniform, 2000, 23, 2000, true)
	want := direct.SelfPotentials(set, 0)
	for _, m := range []Method{Original, Adaptive} {
		e, err := New(set, Config{Method: m, Degree: 5, Alpha: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		got, st := e.Potentials()
		// Relative error norm is against a near-cancelling reference; use
		// absolute error scaled by charge magnitude instead.
		ae := stats.MaxAbsErr(got, want)
		if ae > 1.0 { // charges are +-1, potentials O(100)
			t.Errorf("%s: max abs error %v", m, ae)
		}
		if st.MaxDegree > e.Cfg.MaxDegree {
			t.Errorf("%s: degree %d above clamp", m, st.MaxDegree)
		}
	}
}

func TestPerPointBoundHolds(t *testing.T) {
	// Stronger than the aggregate check: for each sampled target, the
	// treecode error is below the sum of its own interactions' bounds.
	set, _ := points.GenerateCharged(points.Gaussian, 1500, 24, 1500, false)
	e, err := New(set, Config{Method: Adaptive, Degree: 3, Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.Potentials()
	want := direct.SelfPotentials(set, 0)
	tr := e.Tree
	for s := 0; s < 100; s++ {
		i := (s * 13) % len(tr.Pos)
		var bound float64
		e.VisitInteractions(tr.Pos[i], i, func(n *tree.Node, degree int) {
			bound += n.Mp.BoundAt(tr.Pos[i], degree)
		}, nil)
		orig := tr.Perm[i]
		if err := math.Abs(got[orig] - want[orig]); err > bound*(1+1e-9)+1e-12 {
			t.Fatalf("target %d: error %v exceeds its bound %v", orig, err, bound)
		}
	}
}

// The central claim, as a test: with unit charges, growing n grows the
// original method's per-point error while the adaptive method's stays
// bounded (O(log n) vs O(n)).
func TestErrorGrowthClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sizes := []int{2000, 16000}
	errs := map[Method][]float64{}
	for _, n := range sizes {
		set, _ := points.GenerateCharged(points.Uniform, n, 25, float64(n), false)
		want := direct.SelfPotentials(set, 0)
		for _, m := range []Method{Original, Adaptive} {
			e, err := New(set, Config{Method: m, Degree: 4, Alpha: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := e.Potentials()
			errs[m] = append(errs[m], stats.MeanAbsErr(got, want))
		}
	}
	growO := errs[Original][1] / errs[Original][0]
	growA := errs[Adaptive][1] / errs[Adaptive][0]
	t.Logf("8x n: original error grew %.2fx (to %.4f), adaptive %.2fx (to %.4f)",
		growO, errs[Original][1], growA, errs[Adaptive][1])
	if growO < 1.3 {
		t.Errorf("original error should grow with n, grew %v", growO)
	}
	if growA >= growO {
		t.Errorf("adaptive error growth %v not below original %v", growA, growO)
	}
	// And at the larger size the adaptive method is decisively more accurate.
	if errs[Adaptive][1] > 0.5*errs[Original][1] {
		t.Errorf("adaptive error %v not well below original %v at n=%d",
			errs[Adaptive][1], errs[Original][1], sizes[1])
	}
}

func TestRefQuantileTradesTermsForError(t *testing.T) {
	set, _ := points.GenerateCharged(points.Uniform, 6000, 29, 6000, false)
	want := direct.SelfPotentials(set, 0)
	run := func(q float64) (float64, int64) {
		e, err := New(set, Config{Method: Adaptive, Degree: 4, Alpha: 0.5, RefQuantile: q})
		if err != nil {
			t.Fatal(err)
		}
		phi, st := e.Potentials()
		return stats.MeanAbsErr(phi, want), st.Terms
	}
	errMin, termsMin := run(0)   // theorem's reference (min leaf)
	errMax, termsMax := run(1.0) // cheapest reference (max leaf)
	if termsMax >= termsMin {
		t.Errorf("larger quantile should reduce terms: %d vs %d", termsMax, termsMin)
	}
	if errMax < errMin {
		t.Errorf("larger quantile should not reduce error: %v vs %v", errMax, errMin)
	}
	// Both remain below the fixed-degree method's error.
	o, err := New(set, Config{Method: Original, Degree: 4, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	phiO, _ := o.Potentials()
	errO := stats.MeanAbsErr(phiO, want)
	if errMax >= errO {
		t.Errorf("even the cheapest adaptive reference should beat original: %v vs %v", errMax, errO)
	}
}

func TestSelfNodeNeverAccepted(t *testing.T) {
	// A node containing the target must never pass the MAC (a/r >= 1).
	set, _ := points.Generate(points.MultiGauss, 1000, 26)
	e, _ := New(set, Config{Degree: 4, Alpha: 0.9})
	tr := e.Tree
	for i := 0; i < len(tr.Pos); i += 37 {
		e.VisitInteractions(tr.Pos[i], i, func(n *tree.Node, _ int) {
			if n.Start <= i && i < n.End {
				t.Fatalf("node containing target %d was accepted", i)
			}
		}, nil)
	}
}

func TestFieldsSelfExclusion(t *testing.T) {
	// Fields on a two-particle system: each particle must feel only the
	// other one (no self force).
	set, _ := points.Generate(points.Uniform, 2, 27)
	e, _ := New(set, Config{Degree: 4})
	_, field, _ := e.Fields()
	d := set.Particles[0].Pos.Sub(set.Particles[1].Pos)
	r := d.Norm()
	wantMag := set.Particles[1].Charge / (r * r)
	if math.Abs(field[0].Norm()-wantMag) > 1e-12*(1+wantMag) {
		t.Fatalf("field magnitude %v, want %v", field[0].Norm(), wantMag)
	}
	// Directions are opposite.
	if field[0].Normalize().Add(field[1].Normalize()).Norm() > 1e-9 {
		t.Fatal("two-body fields not antiparallel")
	}
}

// TestPotentialsAtWorkerInvariance: PotentialsAt splits its targets into
// fixed 64-target tasks on the work-stealing scheduler, so every worker
// count (including more workers than tasks) must give bitwise the serial
// result, a partial last task included.
func TestPotentialsAtWorkerInvariance(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 1000, 28)
	probes, _ := points.Generate(points.Gaussian, 700, 29)
	targets := make([]vec.V3, probes.N())
	for i, p := range probes.Particles {
		targets[i] = p.Pos
	}
	var ref []float64
	for _, w := range []int{1, 3, 16} {
		e, err := New(set, Config{Degree: 4, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := e.PotentialsAt(targets)
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] { //lint:ignore floatcmp bitwise identity across worker counts is the property under test
				t.Fatalf("workers=%d: phi[%d] = %v differs from serial %v", w, i, got[i], ref[i])
			}
		}
	}
}
