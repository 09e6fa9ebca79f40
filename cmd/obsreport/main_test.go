package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treecode/internal/benchfmt"
	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/sim"
	"treecode/internal/vec"
)

// sampleDoc builds a small self-consistent benchmark document.
func sampleDoc() *benchfmt.Doc {
	relErr := 2.5e-7
	return &benchfmt.Doc{
		Schema: benchfmt.Schema, Method: "adaptive", Alpha: 0.5, Degree: 4, Seed: 42,
		Results: []benchfmt.Result{
			{Dist: "uniform", N: 10000, Workers: 1, EvalMS: 100,
				Terms: 123456, PC: 2000, PP: 5000, MaxDegree: 7, BoundSum: 1.25, RelErrDirect: &relErr},
			{Dist: "uniform", N: 10000, Workers: 4, EvalMS: 60,
				Terms: 123456, PC: 2000, PP: 5000, MaxDegree: 7, BoundSum: 1.25, RelErrDirect: &relErr},
		},
		Steps: []benchfmt.StepResult{
			{Dist: "plummer", N: 1000, Workers: 1, Steps: 3, Dt: 1e-4, Policy: "auto",
				TotalMS: 50, Refits: 3, Migrants: 12,
				Samples: []obs.StepSample{
					{Step: 0, RefitKind: "build", WallNS: 2e6, EvalNS: 1e6, BudgetPred: 0.5, BudgetReal: 0.1, PlanRebuilt: 400, PlanCollectNS: 3e5},
					{Step: 1, RefitKind: "refit", WallNS: 1e6, EvalNS: 5e5, Migrants: 6, MigrantFrac: 0.006, BudgetPred: 0.25, BudgetReal: 0.05, PlanReused: 390, PlanRebuilt: 10, PlanReuse: 0.975, PlanCollectNS: 1e4},
					{Step: 2, RefitKind: "refit", WallNS: 1e6, EvalNS: 5e5, Migrants: 6, MigrantFrac: 0.006, BudgetPred: 0.25, BudgetReal: 0.05, PlanReused: 395, PlanRebuilt: 5, PlanReuse: 0.9875, PlanCollectNS: 5e3},
				},
				Rollup:  obs.SeriesRollup{Steps: 3, Builds: 1, Refits: 2},
				Journal: []obs.Event{{Step: 1, Kind: obs.EventDegreeClamp, Reason: "cap", Value: 2}},
				Plan: &benchfmt.StepPlan{EntriesReused: 785, EntriesRebuilt: 415, ReuseFrac: 0.6542,
					Invalidated: 15, TraversalNS: 315000, TraversalSavedNS: 585000},
			},
			{Dist: "plummer", N: 1000, Workers: 1, Steps: 2, Dt: 8e-4, Policy: "block",
				TotalMS: 80, Refits: 5, Migrants: 20,
				Rollup: obs.SeriesRollup{Steps: 2, Builds: 1, Refits: 1},
				Plan:   &benchfmt.StepPlan{EntriesReused: 500, EntriesRebuilt: 100, ReuseFrac: 0.8333},
				Block: &benchfmt.StepBlock{Rungs: 4, Eta: 1, MacroSteps: 2,
					Substeps: 10, ForceEvals: 2500, GlobalEvals: 10000, EvalReduction: 4.0,
					Occupancy: []int64{900, 60, 30, 10}, Promotions: 25, Demotions: 8,
					Staleness: 0.02, PhiDrift: 2e-6, PhiBudget: 1e-4, TrajDrift: 1e-5},
			},
		},
		StepPairs: []benchfmt.StepPair{
			{Dist: "plummer", N: 1000, Workers: 1, Steps: 3, Dt: 1e-4,
				ConstructSpeedup: 3, RefitPhiDrift: 1e-6, RefitPhiBound: 1e-4},
		},
	}
}

func TestDiffIdenticalDocumentsClean(t *testing.T) {
	if regs := diff(sampleDoc(), sampleDoc(), 1.75, 1.1, 1.25, 1e-9); len(regs) != 0 {
		t.Fatalf("identical documents regressed: %v", regs)
	}
}

func TestDiffCatchesWallTimeRegression(t *testing.T) {
	next := sampleDoc()
	next.Results[0].EvalMS *= 2 // injected 2x slowdown
	regs := diff(sampleDoc(), next, 1.75, 1.1, 1.25, 1e-9)
	if len(regs) != 1 || !strings.Contains(regs[0], "wall time") {
		t.Fatalf("2x wall regression not caught: %v", regs)
	}
	// With wall checks disabled (cross-machine mode) it must pass.
	if regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9); len(regs) != 0 {
		t.Fatalf("wallfactor 0 still flagged wall time: %v", regs)
	}
}

func TestDiffCatchesBudgetViolation(t *testing.T) {
	next := sampleDoc()
	next.StepPairs[0].RefitPhiDrift = 10 * next.StepPairs[0].RefitPhiBound
	// Budget violations gate even with wall checks disabled.
	regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9)
	if len(regs) != 1 || !strings.Contains(regs[0], "Theorem 2 budget") {
		t.Fatalf("budget violation not caught: %v", regs)
	}
}

func TestDiffCatchesCounterDrift(t *testing.T) {
	next := sampleDoc()
	next.Results[1].Terms += 1000
	next.Steps[0].Rebuilds = 1
	regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9)
	if len(regs) != 2 {
		t.Fatalf("want 2 counter regressions, got: %v", regs)
	}
	// Counters are machine-independent only for identical configurations:
	// a different seed must disable the exact checks instead of flagging.
	next.Seed = 43
	if regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9); len(regs) != 0 {
		t.Fatalf("seed-mismatched diff still gated counters: %v", regs)
	}
}

func TestDiffCatchesPlanReuseRegression(t *testing.T) {
	next := sampleDoc()
	next.Steps[0].Plan.ReuseFrac = 0.30 // cache effectiveness collapsed
	regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9)
	if len(regs) != 1 || !strings.Contains(regs[0], "plan reuse") {
		t.Fatalf("plan reuse collapse not caught: %v", regs)
	}
	// A drop within the tolerance band must pass.
	next.Steps[0].Plan.ReuseFrac = sampleDoc().Steps[0].Plan.ReuseFrac / 1.05
	if regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9); len(regs) != 0 {
		t.Fatalf("in-tolerance reuse drop flagged: %v", regs)
	}
	// planfactor 0 disables the gate entirely.
	next.Steps[0].Plan.ReuseFrac = 0
	if regs := diff(sampleDoc(), next, 0, 0, 1.25, 1e-9); len(regs) != 0 {
		t.Fatalf("planfactor 0 still gated plan reuse: %v", regs)
	}
}

func TestDiffCatchesBlockEvalReductionRegression(t *testing.T) {
	next := sampleDoc()
	next.Steps[1].Block.EvalReduction = 1.5 // savings collapsed from 4.0x
	// Keep the deterministic schedule checks out of the way: the collapse
	// must be caught by the factor gate alone.
	next.Seed = 43
	regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9)
	if len(regs) != 1 || !strings.Contains(regs[0], "eval reduction") {
		t.Fatalf("eval reduction collapse not caught: %v", regs)
	}
	// A drop within the tolerance band must pass.
	next.Steps[1].Block.EvalReduction = 4.0 / 1.2
	if regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9); len(regs) != 0 {
		t.Fatalf("in-tolerance reduction drop flagged: %v", regs)
	}
	// blockfactor 0 disables the gate entirely.
	next.Steps[1].Block.EvalReduction = 1.0
	if regs := diff(sampleDoc(), next, 0, 1.1, 0, 1e-9); len(regs) != 0 {
		t.Fatalf("blockfactor 0 still gated eval reduction: %v", regs)
	}
}

func TestDiffCatchesBlockScheduleDrift(t *testing.T) {
	next := sampleDoc()
	next.Steps[1].Block.ForceEvals += 100
	next.Steps[1].Block.Occupancy = []int64{890, 70, 30, 10}
	regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9)
	if len(regs) != 2 {
		t.Fatalf("want schedule + occupancy regressions, got: %v", regs)
	}
	if !strings.Contains(regs[0]+regs[1], "schedule drifted") || !strings.Contains(regs[0]+regs[1], "occupancy drifted") {
		t.Fatalf("unexpected regression set: %v", regs)
	}
	// The same drift under a different criterion prefactor is a
	// configuration change, not a regression: exact checks must skip.
	next.Steps[1].Block.Eta = 2
	if regs := diff(sampleDoc(), next, 0, 1.1, 1.25, 1e-9); len(regs) != 0 {
		t.Fatalf("eta-mismatched block cell still gated exactly: %v", regs)
	}
}

func TestDiffCatchesBlockBudgetViolation(t *testing.T) {
	next := sampleDoc()
	next.Steps[1].Block.PhiDrift = 10 * next.Steps[1].Block.PhiBudget
	// Like the step-pair budget, the block budget gates even when nothing
	// matches and all factor gates are off.
	next.Seed = 43
	regs := diff(sampleDoc(), next, 0, 0, 0, 1e-9)
	if len(regs) != 1 || !strings.Contains(regs[0], "extended Theorem 2 budget") {
		t.Fatalf("block budget violation not caught: %v", regs)
	}
}

func TestDiffSkipsPlanGateOnV4Baseline(t *testing.T) {
	// A pre-v5 baseline has no plan section; the gate must skip, not flag
	// (and not dereference nil).
	base := sampleDoc()
	base.Schema = "treecode-bench/v4"
	base.Steps[0].Plan = nil
	next := sampleDoc()
	next.Steps[0].Plan.ReuseFrac = 0
	if regs := diff(base, next, 0, 1.1, 1.25, 1e-9); len(regs) != 0 {
		t.Fatalf("v4 baseline without plan section gated plan reuse: %v", regs)
	}
}

func TestDiffVacuousWhenNoCellsMatch(t *testing.T) {
	next := sampleDoc()
	for i := range next.Results {
		next.Results[i].N = 777
	}
	for i := range next.Steps {
		next.Steps[i].N = 777
	}
	next.StepPairs = nil
	regs := diff(sampleDoc(), next, 1.75, 1.1, 1.25, 1e-9)
	if len(regs) != 1 || !strings.Contains(regs[0], "vacuous") {
		t.Fatalf("empty intersection must fail loudly: %v", regs)
	}
}

func writeDoc(t *testing.T, d *benchfmt.Doc) string {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderBenchDocument(t *testing.T) {
	path := writeDoc(t, sampleDoc())
	out := filepath.Join(t.TempDir(), "report.txt")
	w, err := cliio.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := render(w, path); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	report := string(raw)
	for _, want := range []string{
		"policy=auto", "refit", "budget_pred", "degree-clamp",
		"construct speedup 3.00x", "rollup: 3 steps (1 build, 2 refit, 0 full",
		"plan_reuse", "plan: reuse 0.6542 (785 reused, 415 rebuilt)",
		"block: 4 rungs (eta=1), 2500 evals over 10 substeps vs 10000 global (4.00x)",
		"occupancy [900 60 30 10]",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRenderObsSnapshot(t *testing.T) {
	c := obs.New()
	c.AddStepSample(obs.StepSample{RefitKind: "build", WallNS: 1e6, EvalNS: 5e5})
	c.AddEvent(obs.EventRebuildFallback, "migrant-fraction", 42)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := obs.WriteJSON(c, path); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "report.txt")
	w, err := cliio.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := render(w, path); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "rebuild-fallback") || !strings.Contains(string(raw), "build") {
		t.Fatalf("snapshot report incomplete:\n%s", raw)
	}
}

func TestReadDocRejectsV5MissingPlanSection(t *testing.T) {
	d := sampleDoc()
	d.Steps[0].Plan = nil
	path := writeDoc(t, d)
	_, err := benchfmt.ReadDoc(path)
	if err == nil || !strings.Contains(err.Error(), "missing the plan section") {
		t.Fatalf("v5 document without plan section accepted: %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "policy=auto") {
		t.Fatalf("rejection does not identify the offending cell: %v", err)
	}
	// The same document tagged v4 must be accepted (older producers).
	d.Schema = "treecode-bench/v4"
	path = writeDoc(t, d)
	if _, err := benchfmt.ReadDoc(path); err != nil {
		t.Fatalf("v4 document without plan section rejected: %v", err)
	}
}

func TestReadDocRejectsForeignJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.json")
	if err := os.WriteFile(path, []byte(`{"schema":"something-else/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := benchfmt.ReadDoc(path); err == nil {
		t.Fatal("foreign schema accepted as a bench document")
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the obs snapshot decoder and
// renders every snapshot it accepts: neither step may panic, and an
// accepted snapshot carries the treecode-obs schema tag. The seed is the
// -obsjson trace of a small three-step simulation.
func FuzzDecodeSnapshot(f *testing.F) {
	set, err := points.Generate(points.Plummer, 300, 1)
	if err != nil {
		f.Fatal(err)
	}
	col := obs.New()
	s, err := sim.New(sim.State{Set: set, Vel: make([]vec.V3, set.N())}, sim.Config{
		Dt: 1e-3, Force: core.Config{Method: core.Adaptive, Degree: 3, Obs: col},
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Run(3); err != nil {
		f.Fatal(err)
	}
	col.AddEvent(obs.EventRebuildFallback, "migrant-fraction", 42)
	path := filepath.Join(f.TempDir(), "trace.json")
	if err := obs.WriteJSON(col, path); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"treecode-obs/v1"}`))
	f.Add([]byte(`{"schema":"something-else/v1"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		snap, err := decodeSnapshot(raw)
		if err != nil {
			return
		}
		if !strings.HasPrefix(snap.Schema, "treecode-obs/") {
			t.Fatalf("accepted schema %q", snap.Schema)
		}
		w := &cliio.Output{W: bufio.NewWriter(io.Discard)}
		renderSeries(w, snap.Series.Samples, snap.Journal.Events, snap.Series.Rollup)
	})
}
