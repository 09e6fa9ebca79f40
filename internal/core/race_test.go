package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/vec"
)

// raceSet builds a small deterministic workload for the -race exercises:
// small enough to stay fast under the race detector, large enough that the
// scheduler actually hands leaf tasks to several goroutines.
func raceSet(t *testing.T) *points.Set {
	t.Helper()
	set, err := points.Generate(points.Uniform, 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestPotentialsRace exercises one evaluator from concurrent goroutines,
// each running a multi-worker evaluation. Run with -race; the results must
// also be bit-identical because workers only write disjoint output slots.
// A second round runs Potentials, Fields and FieldsFor concurrently right
// after an Update with migrants, when the first call must repair the plan
// store, against a twin evaluator given the same history serially.
func TestPotentialsRace(t *testing.T) {
	set := raceSet(t)
	cfg := Config{Method: Adaptive, Degree: 3, Alpha: 0.5, Workers: 4}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := e.Potentials()

	const callers = 4
	results := make([][]float64, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			phi, _ := e.Potentials()
			results[c] = phi
		}(c)
	}
	wg.Wait()
	for c, phi := range results {
		bitsEqual(t, phi, ref, fmt.Sprintf("caller %d", c))
	}

	col := obs.New()
	twinCfg := cfg
	twinCfg.Obs = col
	twin, err := New(set, twinCfg)
	if err != nil {
		t.Fatal(err)
	}
	twin.Potentials()
	pos := newPositions(e, rand.New(rand.NewSource(5)), 5e-3)
	for _, ev := range []*Evaluator{e, twin} {
		if kind, err := ev.Update(pos); err != nil || kind != RebuildRefit {
			t.Fatalf("update: kind %v, err %v; want a refit", kind, err)
		}
	}
	if m := col.Metrics().Refit.Migrants; m == 0 {
		t.Fatal("update moved no particle across leaves; the round would not repair plans")
	}
	active := make([]bool, set.N())
	for i := range active {
		active[i] = i%3 == 0
	}
	wantPhi, _ := twin.Potentials()
	wantFPhi, wantF, _ := twin.Fields()
	wantAPhi, wantA, _ := twin.FieldsFor(active)

	var phi, fPhi, aPhi []float64
	var f, a []vec.V3
	wg.Add(3)
	go func() { defer wg.Done(); phi, _ = e.Potentials() }()
	go func() { defer wg.Done(); fPhi, f, _ = e.Fields() }()
	go func() { defer wg.Done(); aPhi, a, _ = e.FieldsFor(active) }()
	wg.Wait()
	bitsEqual(t, phi, wantPhi, "Potentials after migrant update")
	bitsEqual(t, fPhi, wantFPhi, "Fields potentials after migrant update")
	bitsEqual(t, aPhi, wantAPhi, "FieldsFor potentials after migrant update")
	for i := range wantF {
		if f[i] != wantF[i] || a[i] != wantA[i] {
			t.Fatalf("field %d after migrant update: Fields %v want %v, FieldsFor %v want %v",
				i, f[i], wantF[i], a[i], wantA[i])
		}
	}
}

// TestFieldsRace exercises concurrent Fields evaluations on one evaluator.
func TestFieldsRace(t *testing.T) {
	set := raceSet(t)
	e, err := New(set, Config{Method: Original, Degree: 3, Alpha: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	for c := 0; c < 3; c++ {
		go func() {
			defer wg.Done()
			phi, field, _ := e.Fields()
			if len(phi) != set.N() || len(field) != set.N() {
				t.Errorf("short result: %d/%d", len(phi), len(field))
			}
		}()
	}
	wg.Wait()
}
