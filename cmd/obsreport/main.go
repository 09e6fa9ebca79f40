// Command obsreport analyzes benchmark-trajectory documents written by
// cmd/benchjson (and, for the render mode, obs snapshot traces written via
// -obsjson).
//
// Render mode (the default) turns one trace into human-readable per-step
// tables — one row per StepSample with the refit kind, migrant count,
// radius inflation, predicted vs realized Theorem 2 budget, and wall
// times — followed by the event journal and the whole-run rollups:
//
//	obsreport BENCH_treecode.json
//	obsreport -o report.txt trace.json
//
// Diff mode compares a new document against a baseline and exits nonzero
// on regression, so CI can gate on it:
//
//	obsreport -diff BENCH_treecode.json new.json
//
// Cells are matched exactly on their identifying coordinates (dist, n,
// workers, and the policy of steps cells); cells present in only one
// document are ignored, but at least one cell must match. Two families of
// checks run:
//
//   - Deterministic counters (interaction terms, M2P/P2P counts, direct
//     relative error, refit/rebuild counts) are machine-independent given
//     the same seed and configuration: they must match exactly (the
//     relative error within floating-point tolerance) whenever the two
//     documents' headers (seed, alpha, degree, method) agree.
//
//   - Wall-clock times are machine-dependent noise across hosts; the new
//     eval time may exceed the baseline by at most -wallfactor (default
//     1.75). Pass -wallfactor 0 to disable the wall check entirely, which
//     is the right setting when the two documents come from different
//     machines — CI diffs a fresh run against the checked-in baseline
//     this way and still catches counter drift and budget violations.
//
//   - Interaction-plan cache reuse (schema v5 steps cells) may regress
//     only within -planfactor: the new reuse fraction must stay above
//     base/-planfactor on every matched steps cell where both documents
//     carry plan data. Pre-v5 baselines carry none and skip the gate.
//
//   - Block-timestep cells (schema v6 steps cells carrying a block
//     section) gate on the force-evaluation reduction: the new
//     EvalReduction must stay above base/-blockfactor wherever both
//     documents carry block data. Under header identity and matching
//     (dt, rungs, eta) the scheme is fully deterministic, so the substep
//     count, force-evaluation count, and per-rung occupancy histogram
//     must additionally match exactly.
//
// Independently of cell matching, the new document's step pairs must stay
// within their Theorem 2 budget (RefitPhiDrift <= RefitPhiBound), and every
// new block cell's mixed-age phi drift within its extended budget
// (PhiDrift <= PhiBudget).
//
// Exit status: 0 clean, 1 regression found, 2 usage or read error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"treecode/internal/benchfmt"
	"treecode/internal/cliio"
	"treecode/internal/obs"
)

func main() {
	diffBase := flag.String("diff", "", "baseline document: compare FILE (new) against this and exit nonzero on regression")
	wallFactor := flag.Float64("wallfactor", 1.75, "max allowed new/base eval wall-time ratio in -diff mode (0 disables wall checks)")
	planFactor := flag.Float64("planfactor", 1.1, "max allowed base/new plan-reuse-fraction ratio in -diff mode (0 disables the plan gate)")
	blockFactor := flag.Float64("blockfactor", 1.25, "max allowed base/new block eval-reduction ratio in -diff mode (0 disables the block gate)")
	relTol := flag.Float64("reltol", 1e-9, "relative tolerance for deterministic float comparisons in -diff mode")
	out := flag.String("o", "", "render output file (default stdout)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: obsreport [-o report.txt] TRACE.json\n       obsreport -diff BASE.json [-wallfactor F] NEW.json")
		os.Exit(2)
	}
	if *diffBase != "" {
		base, err := benchfmt.ReadDoc(*diffBase)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsreport:", err)
			os.Exit(2)
		}
		next, err := benchfmt.ReadDoc(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsreport:", err)
			os.Exit(2)
		}
		regressions := diff(base, next, *wallFactor, *planFactor, *blockFactor, *relTol)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "obsreport: %d regression(s) against %s\n", len(regressions), *diffBase)
			os.Exit(1)
		}
		fmt.Printf("obsreport: %s matches %s within thresholds\n", flag.Arg(0), *diffBase)
		return
	}

	w, err := cliio.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(2)
	}
	if err := render(w, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(2)
	}
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(2)
	}
}

// ms renders nanoseconds as milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// renderSeries prints the per-step table, journal, and rollup summary of
// one step series.
func renderSeries(w *cliio.Output, samples []obs.StepSample, journal []obs.Event, roll obs.SeriesRollup) {
	fmt.Fprintf(w.W, "  %4s %-6s %9s %11s %9s %12s %12s %8s %8s %8s %10s %8s\n",
		"step", "kind", "migrants", "migr_frac", "inflate", "budget_pred", "budget_real", "wall_ms", "eval_ms", "steals", "plan_reuse", "plan_ms")
	for _, s := range samples {
		fmt.Fprintf(w.W, "  %4d %-6s %9d %11.4g %9.4g %12.5g %12.5g %8.2f %8.2f %8d %10.4f %8.2f\n",
			s.Step, s.RefitKind, s.Migrants, s.MigrantFrac, s.RadiusInflation,
			s.BudgetPred, s.BudgetReal, ms(s.WallNS), ms(s.EvalNS), s.Steals,
			s.PlanReuse, ms(s.PlanCollectNS))
	}
	if n := roll.Steps; n > 0 {
		fmt.Fprintf(w.W, "  rollup: %d steps (%d build, %d refit, %d full; %d evicted)\n",
			n, roll.Builds, roll.Refits, roll.Rebuilds, roll.Dropped)
		fmt.Fprintf(w.W, "  rollup: wall mean %.2f ms max %.2f ms, eval mean %.2f ms, migrants mean %.1f max %.0f\n",
			roll.Wall.Mean(n)/1e6, roll.Wall.Max/1e6, roll.Eval.Mean(n)/1e6,
			roll.Migrants.Mean(n), roll.Migrants.Max)
		fmt.Fprintf(w.W, "  rollup: budget_pred mean %.5g max %.5g, budget_real mean %.5g max %.5g\n",
			roll.BudgetPred.Mean(n), roll.BudgetPred.Max, roll.BudgetReal.Mean(n), roll.BudgetReal.Max)
		fmt.Fprintf(w.W, "  rollup: plan reuse mean %.4f, plan collect mean %.2f ms max %.2f ms\n",
			roll.PlanReuse.Mean(n), roll.PlanCollect.Mean(n)/1e6, roll.PlanCollect.Max/1e6)
	}
	for _, e := range journal {
		fmt.Fprintf(w.W, "  event t=%-12s step=%-4d %-18s value=%-10.4g %s\n",
			time.Duration(e.TimeNS).Round(time.Microsecond), e.Step, e.Kind, e.Value, e.Reason)
	}
}

// render pretty-prints one document: either a benchfmt benchmark document
// (per-steps-cell tables) or a raw obs snapshot (its embedded series).
func render(w *cliio.Output, path string) error {
	if d, err := benchfmt.ReadDoc(path); err == nil {
		fmt.Fprintf(w.W, "%s: %s  method=%s alpha=%v degree=%d seed=%d  go=%s procs=%d\n",
			path, d.Schema, d.Method, d.Alpha, d.Degree, d.Seed, d.Go, d.GOMAXPROCS)
		for i := range d.Steps {
			s := &d.Steps[i]
			fmt.Fprintf(w.W, "\nsteps %s n=%d workers=%d policy=%s (%d steps, dt=%v): construct %.1f ms, moments %.1f ms, total %.1f ms\n",
				s.Dist, s.N, s.Workers, s.Policy, s.Steps, s.Dt, s.ConstructMS, s.MomentsMS, s.TotalMS)
			if p := s.Plan; p != nil {
				fmt.Fprintf(w.W, "  plan: reuse %.4f (%d reused, %d rebuilt), %d invalidated, %d drops, traversal %.1f ms (saved %.1f ms)\n",
					p.ReuseFrac, p.EntriesReused, p.EntriesRebuilt, p.Invalidated, p.Drops,
					ms(p.TraversalNS), ms(p.TraversalSavedNS))
			}
			if b := s.Block; b != nil {
				fmt.Fprintf(w.W, "  block: %d rungs (eta=%g), %d evals over %d substeps vs %d global (%.2fx), occupancy %v\n",
					b.Rungs, b.Eta, b.ForceEvals, b.Substeps, b.GlobalEvals, b.EvalReduction, b.Occupancy)
				fmt.Fprintf(w.W, "  block: phi drift %.3g (budget %.3g), traj drift %.3g, %d promotions, %d demotions, staleness %.3g\n",
					b.PhiDrift, b.PhiBudget, b.TrajDrift, b.Promotions, b.Demotions, b.Staleness)
			}
			renderSeries(w, s.Samples, s.Journal, s.Rollup)
		}
		for _, p := range d.StepPairs {
			fmt.Fprintf(w.W, "\npair %s n=%d workers=%d: construct speedup %.2fx, phi drift %.3g (budget %.3g), traj drift %.3g\n",
				p.Dist, p.N, p.Workers, p.ConstructSpeedup, p.RefitPhiDrift, p.RefitPhiBound, p.TrajDrift)
		}
		return nil
	}
	// Not a benchmark document — try an obs snapshot trace (-obsjson).
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	snap, err := decodeSnapshot(raw)
	if err != nil {
		return fmt.Errorf("%s: neither a treecode-bench document nor an obs snapshot: %w", path, err)
	}
	fmt.Fprintf(w.W, "%s: %s obs snapshot\n", path, snap.Schema)
	renderSeries(w, snap.Series.Samples, snap.Journal.Events, snap.Series.Rollup)
	return nil
}

// decodeSnapshot parses an obs snapshot trace, insisting on its schema tag
// so arbitrary JSON is rejected.
func decodeSnapshot(raw []byte) (*obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(snap.Schema, "treecode-obs/") {
		return nil, fmt.Errorf("schema %q is not a treecode-obs snapshot", snap.Schema)
	}
	return &snap, nil
}

// cellKey identifies one comparable benchmark cell across documents.
type cellKey struct {
	section string // "result" or "steps"
	dist    string
	n       int
	workers int
	policy  string // rebuild policy of a steps cell; empty for results
}

func (k cellKey) String() string {
	return fmt.Sprintf("%s[%s n=%d workers=%d %s]", k.section, k.dist, k.n, k.workers, k.policy)
}

// diff compares next against base and returns the regressions found.
// Deterministic counters gate exactly when the documents' headers agree;
// wall times gate by factor (0 disables); plan reuse fractions may only
// regress within planFactor on matched steps cells where both documents
// carry plan data (pre-v5 baselines skip the gate); block eval reductions
// may only regress within blockFactor where both documents carry block
// data, with exact substep/eval/occupancy checks under full configuration
// identity; budget violations in next gate unconditionally.
func diff(base, next *benchfmt.Doc, wallFactor, planFactor, blockFactor, relTol float64) []string {
	var regs []string
	deterministic := base.Seed == next.Seed && base.Alpha == next.Alpha && //lint:ignore floatcmp header identity, not arithmetic: counters are comparable only under bit-identical configuration
		base.Degree == next.Degree && base.Method == next.Method

	// A pre-v7 baseline holds a walk and a batched result per cell; their
	// counters are identical, and the later (batched) one keeps the key.
	baseResults := map[cellKey]benchfmt.Result{}
	for _, r := range base.Results {
		baseResults[cellKey{"result", r.Dist, r.N, r.Workers, ""}] = r
	}
	matched := 0
	for _, r := range next.Results {
		b, ok := baseResults[cellKey{"result", r.Dist, r.N, r.Workers, ""}]
		if !ok {
			continue
		}
		matched++
		k := cellKey{"result", r.Dist, r.N, r.Workers, ""}
		if deterministic {
			if r.Terms != b.Terms || r.PC != b.PC || r.PP != b.PP {
				regs = append(regs, fmt.Sprintf("%s: interaction counters drifted: terms %d->%d pc %d->%d pp %d->%d",
					k, b.Terms, r.Terms, b.PC, r.PC, b.PP, r.PP))
			}
			if r.MaxDegree != b.MaxDegree {
				regs = append(regs, fmt.Sprintf("%s: max degree %d->%d", k, b.MaxDegree, r.MaxDegree))
			}
			if !closeRel(r.BoundSum, b.BoundSum, relTol) {
				regs = append(regs, fmt.Sprintf("%s: Theorem 2 bound sum drifted %v -> %v", k, b.BoundSum, r.BoundSum))
			}
			if r.RelErrDirect != nil && b.RelErrDirect != nil && !closeRel(*r.RelErrDirect, *b.RelErrDirect, relTol) {
				regs = append(regs, fmt.Sprintf("%s: direct relative error drifted %v -> %v", k, *b.RelErrDirect, *r.RelErrDirect))
			}
		}
		if wallFactor > 0 && b.EvalMS > 0 && r.EvalMS > b.EvalMS*wallFactor {
			regs = append(regs, fmt.Sprintf("%s: eval wall time %.2f ms exceeds %.2f x baseline %.2f ms",
				k, r.EvalMS, wallFactor, b.EvalMS))
		}
	}

	baseSteps := map[cellKey]benchfmt.StepResult{}
	for _, s := range base.Steps {
		baseSteps[cellKey{"steps", s.Dist, s.N, s.Workers, s.Policy}] = s
	}
	for _, s := range next.Steps {
		b, ok := baseSteps[cellKey{"steps", s.Dist, s.N, s.Workers, s.Policy}]
		if !ok || s.Steps != b.Steps {
			continue
		}
		matched++
		k := cellKey{"steps", s.Dist, s.N, s.Workers, s.Policy}
		if deterministic && s.Dt == b.Dt { //lint:ignore floatcmp configuration identity: a different timestep invalidates exact counter comparison entirely
			if s.Refits != b.Refits || s.Rebuilds != b.Rebuilds || s.Migrants != b.Migrants {
				regs = append(regs, fmt.Sprintf("%s: maintenance counters drifted: refits %d->%d rebuilds %d->%d migrants %d->%d",
					k, b.Refits, s.Refits, b.Rebuilds, s.Rebuilds, b.Migrants, s.Migrants))
			}
		}
		if wallFactor > 0 && b.TotalMS > 0 && s.TotalMS > b.TotalMS*wallFactor {
			regs = append(regs, fmt.Sprintf("%s: total wall time %.2f ms exceeds %.2f x baseline %.2f ms",
				k, s.TotalMS, wallFactor, b.TotalMS))
		}
		if planFactor > 0 && b.Plan != nil && s.Plan != nil && b.Plan.ReuseFrac > 0 {
			if s.Plan.ReuseFrac < b.Plan.ReuseFrac/planFactor {
				regs = append(regs, fmt.Sprintf("%s: plan reuse fraction %.4f fell below baseline %.4f / %.2f",
					k, s.Plan.ReuseFrac, b.Plan.ReuseFrac, planFactor))
			}
		}
		if bb, sb := b.Block, s.Block; bb != nil && sb != nil {
			if blockFactor > 0 && bb.EvalReduction > 0 && sb.EvalReduction < bb.EvalReduction/blockFactor { //lint:ignore nanflow blockFactor > 0 is checked first in the same condition
				regs = append(regs, fmt.Sprintf("%s: block eval reduction %.2fx fell below baseline %.2fx / %.2f",
					k, sb.EvalReduction, bb.EvalReduction, blockFactor))
			}
			// Under full configuration identity the block schedule is
			// deterministic: the same particles land on the same rungs and
			// the same substeps run, so the counters must match exactly.
			if deterministic && s.Dt == b.Dt && //lint:ignore floatcmp configuration identity, not arithmetic
				sb.Rungs == bb.Rungs && sb.Eta == bb.Eta && sb.MacroSteps == bb.MacroSteps { //lint:ignore floatcmp configuration identity, not arithmetic
				if sb.Substeps != bb.Substeps || sb.ForceEvals != bb.ForceEvals {
					regs = append(regs, fmt.Sprintf("%s: block schedule drifted: substeps %d->%d force evals %d->%d",
						k, bb.Substeps, sb.Substeps, bb.ForceEvals, sb.ForceEvals))
				}
				if !equalOccupancy(sb.Occupancy, bb.Occupancy) {
					regs = append(regs, fmt.Sprintf("%s: rung occupancy drifted %v -> %v", k, bb.Occupancy, sb.Occupancy))
				}
			}
		}
	}

	// Budget violations in the new document regress regardless of matching.
	for _, p := range next.StepPairs {
		if p.RefitPhiDrift > p.RefitPhiBound {
			regs = append(regs, fmt.Sprintf("step pair %s n=%d workers=%d: refit phi drift %v exceeds Theorem 2 budget %v",
				p.Dist, p.N, p.Workers, p.RefitPhiDrift, p.RefitPhiBound))
		}
	}
	for _, s := range next.Steps {
		if s.Block != nil && s.Block.PhiDrift > s.Block.PhiBudget {
			regs = append(regs, fmt.Sprintf("steps[%s n=%d workers=%d %s]: block phi drift %v exceeds extended Theorem 2 budget %v",
				s.Dist, s.N, s.Workers, s.Policy, s.Block.PhiDrift, s.Block.PhiBudget))
		}
	}

	if matched == 0 {
		regs = append(regs, fmt.Sprintf("no comparable cells between the documents (%d base results, %d new results) — diff is vacuous",
			len(base.Results), len(next.Results)))
	}
	sort.Strings(regs)
	return regs
}

// equalOccupancy reports whether two per-rung histograms are identical.
func equalOccupancy(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// closeRel reports a == b within relative tolerance (absolute near zero).
func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}
