package core

import (
	"runtime"
	"sync"
	"testing"

	"treecode/internal/obs"
	"treecode/internal/points"
)

// TestBatchedRaceWorkerGrid exercises the batched evaluator under the race
// detector across worker counts 1..2×GOMAXPROCS, mirroring the scheduler's
// own race grid: clustered input keeps leaf tasks uneven so steals actually
// happen, and every count must reproduce the serial result bitwise (workers
// write disjoint output slots; per-leaf summation order is deterministic).
func TestBatchedRaceWorkerGrid(t *testing.T) {
	set, err := points.Generate(points.MultiGauss, 2000, 17)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(set, Config{Method: Adaptive, Degree: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := e.PotentialsWithWorkers(1)
	for workers := 1; workers <= 2*runtime.GOMAXPROCS(0); workers++ {
		phi, _ := e.PotentialsWithWorkers(workers)
		for i := range phi {
			if phi[i] != ref[i] {
				t.Fatalf("workers=%d: phi[%d] = %g differs from serial %g", workers, i, phi[i], ref[i])
			}
		}
	}
}

// TestBatchedRaceSharedCollector runs concurrent batched evaluations that
// all record into one shared obs collector: shard merges, steal-count adds,
// and span bookkeeping must be race-free.
func TestBatchedRaceSharedCollector(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 1200, 23)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	e, err := New(set, Config{Method: Adaptive, Degree: 3, Obs: col, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The serial warm-up builds every leaf's interaction plan and gives the
	// reference result; the concurrent evaluations below serialize on the
	// evaluator's lock and hit the cached plans.
	single, _ := e.Potentials()
	want := col.Metrics()

	const callers = 4
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			phi, _ := e.Potentials()
			for i := range phi {
				if phi[i] != single[i] {
					t.Errorf("concurrent batched result diverges at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Census counters are additive: callers+1 identical evaluations must
	// scale the acceptance census exactly.
	got := col.Metrics()
	if got.Accepts() != (callers+1)*want.Accepts() {
		t.Fatalf("accepts %d after %d runs, want %d", got.Accepts(), callers+1, (callers+1)*want.Accepts())
	}
	if got.Batch.LeafTasks != (callers+1)*want.Batch.LeafTasks {
		t.Fatalf("leaf tasks %d, want %d", got.Batch.LeafTasks, (callers+1)*want.Batch.LeafTasks)
	}
}

// TestBatchedRaceFields exercises the fields pathway concurrently.
func TestBatchedRaceFields(t *testing.T) {
	set, err := points.Generate(points.Uniform, 900, 29)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(set, Config{Method: Original, Degree: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the plan store first, so the concurrent calls all take the plan
	// hit path (TestFieldsRace covers concurrent calls on a cold store).
	e.Fields()
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
