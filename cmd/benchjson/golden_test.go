package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"treecode/internal/benchfmt"
)

// TestCheckedInBenchDocument validates the repo-root BENCH_treecode.json
// against the current schema: the document must parse into doc without
// unknown-field drift, carry the current schema tag, embed the per-step obs
// time series and the mandatory plan section, and its steps section must
// show the persistent engine earning its keep — the 100k cell refits
// without falling back, spends less tree-construction time than the
// rebuild-every policy, stays within its Theorem 2 budget, and serves at
// least 90% of its interaction-plan entries from the cache in steady
// state. The v6 block cell must show the hierarchical block-timestep
// scheme earning its keep at the acceptance scale: at least 5x fewer
// force evaluations than a global-dt run on the same finest occupied
// grid, with the mixed-age phi drift inside its extended Theorem 2
// budget. Parse-only (no benchmarks re-run), so it is safe in the tier-1
// suite.
func TestCheckedInBenchDocument(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_treecode.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d doc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCH_treecode.json does not match the doc schema: %v", err)
	}
	if d.Schema != benchfmt.Schema {
		t.Fatalf("schema = %q, want %s", d.Schema, benchfmt.Schema)
	}
	if len(d.Results) == 0 || len(d.Builds) == 0 {
		t.Fatalf("document incomplete: %d results, %d builds", len(d.Results), len(d.Builds))
	}
	if len(d.Steps) == 0 || len(d.StepPairs) == 0 {
		t.Fatal("steps section missing; regenerate with cmd/benchjson default flags")
	}

	var saw100k, saw100kBlock bool
	for _, s := range d.Steps {
		if s.ConstructMS < 0 || s.MomentsMS < 0 || s.TotalMS <= 0 {
			t.Errorf("steps[%s n=%d w=%d]: non-positive timings %+v", s.Policy, s.N, s.Workers, s)
		}
		// v4: every steps entry embeds its per-step time series.
		if len(s.Samples) != s.Steps {
			t.Errorf("steps[%s n=%d w=%d]: %d samples for %d steps",
				s.Policy, s.N, s.Workers, len(s.Samples), s.Steps)
		}
		if s.Rollup.Steps != int64(s.Steps) {
			t.Errorf("steps[%s n=%d w=%d]: rollup covers %d steps, want %d",
				s.Policy, s.N, s.Workers, s.Rollup.Steps, s.Steps)
		}
		for i, sm := range s.Samples {
			if sm.WallNS <= 0 || sm.EvalNS <= 0 {
				t.Errorf("steps[%s n=%d w=%d] sample %d: non-positive timings %+v",
					s.Policy, s.N, s.Workers, i, sm)
			}
			if sm.BudgetPred <= 0 || sm.BudgetReal <= 0 {
				t.Errorf("steps[%s n=%d w=%d] sample %d: missing Theorem 2 budgets %+v",
					s.Policy, s.N, s.Workers, i, sm)
			}
			want := "refit"
			if i == 0 || s.Policy == "every" {
				want = "build"
			}
			if s.Policy != "every" && (s.Rebuilds > 0 || (s.Policy == "block" && i > 0)) {
				continue // fallback (or later block macro) steps may report "full"
			}
			if sm.RefitKind != want {
				t.Errorf("steps[%s n=%d w=%d] sample %d: kind %q, want %q",
					s.Policy, s.N, s.Workers, i, sm.RefitKind, want)
			}
		}
		// v5: every steps entry carries the interaction-plan summary.
		if s.Plan == nil {
			t.Errorf("steps[%s n=%d w=%d]: missing plan section (mandatory since schema v5)",
				s.Policy, s.N, s.Workers)
			continue
		}
		tot := s.Plan.EntriesReused + s.Plan.EntriesRebuilt
		if tot <= 0 {
			t.Errorf("steps[%s n=%d w=%d]: plan section recorded no entries; batched step evaluation did not run",
				s.Policy, s.N, s.Workers)
		} else if got := float64(s.Plan.EntriesReused) / float64(tot); got < s.Plan.ReuseFrac-1e-9 || got > s.Plan.ReuseFrac+1e-9 {
			t.Errorf("steps[%s n=%d w=%d]: reuse_frac %v inconsistent with %d/%d",
				s.Policy, s.N, s.Workers, s.Plan.ReuseFrac, s.Plan.EntriesReused, tot)
		}
		switch s.Policy {
		case "every":
			if s.Refits != 0 || s.Builds != s.Steps+1 {
				t.Errorf("every[n=%d w=%d]: %d builds, %d refits; want %d builds and no refits",
					s.N, s.Workers, s.Builds, s.Refits, s.Steps+1)
			}
		case "auto":
			if s.N == 100000 {
				saw100k = true
				if s.Refits != int64(s.Steps) || s.Rebuilds != 0 {
					t.Errorf("auto[n=%d w=%d]: %d refits, %d rebuilds over %d steps; want every update to refit",
						s.N, s.Workers, s.Refits, s.Rebuilds, s.Steps)
				}
				// The headline steady-state claim: once past the cold first
				// build, every refit step serves >= 90% of its plan entries
				// from the cache, with measurable traversal savings. (The
				// run-aggregate ReuseFrac sits lower because it includes the
				// first evaluation, which builds every plan from scratch.)
				var steady int
				for i, sm := range s.Samples {
					if sm.RefitKind != "refit" {
						continue
					}
					steady++
					if sm.PlanReuse < 0.90 {
						t.Errorf("auto[n=%d w=%d] step %d: plan reuse %.4f below the 90%% steady-state target",
							s.N, s.Workers, i, sm.PlanReuse)
					}
				}
				if steady == 0 {
					t.Errorf("auto[n=%d w=%d]: no steady-state refit samples to hold to the reuse target", s.N, s.Workers)
				}
				if s.Plan.TraversalSavedNS <= 0 {
					t.Errorf("auto[n=%d w=%d]: no traversal time saved by the plan cache", s.N, s.Workers)
				}
			}
			if s.RadiusInflationMax != 0 && s.RadiusInflationMax < 1 {
				t.Errorf("auto[n=%d w=%d]: radius inflation %v below 1", s.N, s.Workers, s.RadiusInflationMax)
			}
		case "block":
			b := s.Block
			if b == nil {
				t.Errorf("block[n=%d w=%d]: missing block section (mandatory on block cells)", s.N, s.Workers)
				continue
			}
			if b.Substeps <= 0 || b.ForceEvals <= 0 || b.GlobalEvals != int64(s.N)*b.Substeps {
				t.Errorf("block[n=%d w=%d]: inconsistent eval counters %+v", s.N, s.Workers, b)
			}
			var occ int64
			for _, c := range b.Occupancy {
				occ += c
			}
			if len(b.Occupancy) != b.Rungs || occ != int64(s.N) {
				t.Errorf("block[n=%d w=%d]: occupancy %v does not cover %d particles on %d rungs",
					s.N, s.Workers, b.Occupancy, s.N, b.Rungs)
			}
			if b.PhiDrift > b.PhiBudget {
				t.Errorf("block[n=%d w=%d]: mixed-age phi drift %v exceeds extended Theorem 2 budget %v",
					s.N, s.Workers, b.PhiDrift, b.PhiBudget)
			}
			if s.N == 100000 {
				saw100kBlock = true
				// The headline acceptance claim: the rung hierarchy pays at
				// least 5x fewer per-particle force evaluations than a
				// global-dt integrator resolving the same finest grid.
				if b.EvalReduction < 5 {
					t.Errorf("block[n=%d w=%d]: eval reduction %.2fx below the 5x acceptance target",
						s.N, s.Workers, b.EvalReduction)
				}
			}
		default:
			t.Errorf("unknown policy %q", s.Policy)
		}
	}
	if !saw100k {
		t.Error("no auto steps entry at n=100000; the acceptance-scale cell is missing")
	}
	if !saw100kBlock {
		t.Error("no block steps entry at n=100000; the block-timestep acceptance cell is missing")
	}

	for _, p := range d.StepPairs {
		if p.N == 100000 && p.ConstructSpeedup <= 1 {
			t.Errorf("step pair n=%d w=%d: construct speedup %v; the persistent engine must beat rebuild-every",
				p.N, p.Workers, p.ConstructSpeedup)
		}
		if p.RefitPhiDrift > p.RefitPhiBound {
			t.Errorf("step pair n=%d w=%d: refit phi drift %v exceeds Theorem 2 budget %v",
				p.N, p.Workers, p.RefitPhiDrift, p.RefitPhiBound)
		}
	}
}
