package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"treecode/internal/obs"
)

// perLayer lists the per-layer metrics with their units, in report order.
// Every traced run reports all of them; a layer a workload does not
// exercise reads 0. Times and counts are per op (the median over the
// traced ops).
var perLayer = []struct{ name, unit string }{
	{"sim.step.self_s", "s"}, {"sim.force_evals", "count"}, {"sim.substeps", "count"},
	{"core.fields_s", "s"}, {"core.potentials_s", "s"}, {"core.potentials_at_s", "s"},
	{"core.terms", "count"}, {"core.pc", "count"}, {"core.pp", "count"},
	{"core.max_degree", "count"}, {"core.eval_ns_per_term", "ns"},
	{"core.build_s", "s"}, {"core.build.tree_s", "s"}, {"core.build.degrees_s", "s"},
	{"core.upward_s", "s"}, {"core.upward_terms", "count"}, {"core.upward_ns_per_term", "ns"},
	{"core.recharge_s", "s"}, {"core.recharge.stats_s", "s"}, {"core.recharge.upward_s", "s"},
	{"core.refit_s", "s"}, {"core.refit.tree_s", "s"}, {"core.refit.degrees_s", "s"},
	{"core.refit.plans_s", "s"}, {"core.refit.upward_s", "s"},
	{"core.refit.count", "count"}, {"core.refit.fallback_frac", "1"},
	{"plan.reuse_frac", "1"}, {"plan.collect_s", "s"}, {"plan.invalidated", "count"}, {"plan.drops", "count"},
	{"tree.migrants", "count"}, {"tree.splits", "count"}, {"tree.merges", "count"},
	{"tree.radius_inflation_max", "1"},
	{"sched.steals", "count"},
	{"bem.apply_s", "s"}, {"bem.apply.self_s", "s"},
	{"krylov.iters", "count"}, {"krylov.self_s", "s"},
	{"fmm.build_s", "s"}, {"fmm.upward_s", "s"},
	{"fmm.eval.traverse_s", "s"}, {"fmm.eval.m2l_s", "s"}, {"fmm.eval.p2p_s", "s"}, {"fmm.eval.downward_s", "s"},
	{"fmm.m2l", "count"}, {"fmm.m2l_terms", "count"}, {"fmm.p2p", "count"}, {"fmm.up_terms", "count"},
	{"fmm.m2l_ns_per_term", "ns"},
	{"step_s", "s"}, {"iter_s", "s"}, {"solve_s", "s"}, {"cycle_s", "s"},
	{"construct_s", "s"}, {"eval_s", "s"}, {"fmm_s", "s"},
	{"phi_rel_err", "1"}, {"field_rel_err", "1"}, {"cap_err", "1"}, {"fmm_phi_rel_err", "1"},
	{"failed_frac", "1"},
	{"trace.overhead_frac", "1"},
	{"trace.self_residual_ns", "ns"},
	{"fingerprint.mismatches", "count"},
}

// fingerprintCounters are the exact counters that repeat bitwise at a
// fixed seed and worker count; a run whose values differ from the first
// recorded run is nondeterministic.
var fingerprintCounters = []string{
	"core.terms", "core.pc", "core.pp", "core.upward_terms",
	"fmm.m2l", "fmm.p2p", "krylov.iters", "sim.force_evals",
}

// spanMetrics maps per-layer time metrics to the span whose total
// duration (or self time) they report.
var spanMetrics = []struct {
	metric, span string
	self         bool
}{
	{"sim.step.self_s", "sim.Step", true},
	{"core.fields_s", "core/fields", false},
	{"core.potentials_s", "core/potentials", false},
	{"core.potentials_at_s", "core/potentials-at", false},
	{"core.build_s", "core/build", false},
	{"core.build.tree_s", "core/build/tree", false},
	{"core.build.degrees_s", "core/build/degrees", false},
	{"core.upward_s", "core/upward", false},
	{"core.recharge_s", "core/recharge", false},
	{"core.recharge.stats_s", "core/recharge/stats", false},
	{"core.recharge.upward_s", "core/recharge/upward", false},
	{"core.refit_s", "core/refit", false},
	{"core.refit.tree_s", "core/refit/tree", false},
	{"core.refit.degrees_s", "core/refit/degrees", false},
	{"core.refit.plans_s", "core/refit/plans", false},
	{"core.refit.upward_s", "core/refit/upward", false},
	{"bem.apply_s", "bem.TreeApply", false},
	{"bem.apply.self_s", "bem.TreeApply", true},
	{"krylov.self_s", "krylov.GMRES", true},
	{"fmm.build_s", "fmm/build", false},
	{"fmm.upward_s", "fmm/upward", false},
	{"fmm.eval.traverse_s", "fmm/eval/traverse", false},
	{"fmm.eval.m2l_s", "fmm/eval/m2l", false},
	{"fmm.eval.p2p_s", "fmm/eval/p2p", false},
	{"fmm.eval.downward_s", "fmm/eval/downward", false},
}

// tracedOp is what one traced op left behind before its spans are known.
type tracedOp struct {
	root     *span
	before   obs.Metrics
	after    obs.Metrics
	counters map[string]float64
}

// runTraced alternates ops on an untraced twin and on an instance with an
// obs collector attached, each traced op wrapped in an "op" span, then
// nests the collector's spans under the benchmark's and reports the
// per-layer metrics.
func runTraced(w *bufio.Writer, p params, wl workload, setup setupFunc) (report, error) {
	twin, err := setup(nil)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	t0 := tr.now()
	col := obs.New()
	offset := (t0 + tr.now()) / 2
	traced, err := setup(col)
	if err != nil {
		return report{}, fmt.Errorf("traced set-up: %w", err)
	}

	var (
		plain, tracedWalls []float64
		inner              = map[string][]float64{}
		ops                []tracedOp
		attempted, failed  int
		mismatches         int
	)
	start := time.Now()
	var pair float64 // wall time of the last untraced and traced op together
	for attempted < 2*p.minOps || !done(start, pair, p.seconds) {
		ts := time.Now()
		times, err := safeOp(twin, nil)
		wall := time.Since(ts).Seconds()
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(w, "untraced op failed: %v\n", err)
		} else {
			plain = append(plain, wall)
			for k, v := range times {
				inner[k] = append(inner[k], v...)
			}
		}
		var twinCounts map[string]float64
		if err == nil {
			twinCounts = twin.counters()
		}

		before := col.Metrics()
		root := tr.begin("op")
		_, err = safeOp(traced, tr)
		tr.closeAll()
		after := col.Metrics()
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(w, "traced op failed: %v\n", err)
			continue
		}
		tracedWalls = append(tracedWalls, float64(root.dur())/1e9)
		pair = time.Since(ts).Seconds()
		op := tracedOp{root: root, before: before, after: after, counters: traced.counters()}
		// The twin ran the identical op, so its public counters must match.
		for k, v := range twinCounts {
			//lint:ignore floatcmp the counters are integers; any difference is a mismatch
			if op.counters[k] != v {
				mismatches++
				fmt.Fprintf(w, "fingerprint: %s differs between twin ops (%g vs %g)\n", k, v, op.counters[k])
			}
		}
		ops = append(ops, op)
	}
	errs, cerr := safeCheck(traced)
	if cerr != nil {
		failed++
		fmt.Fprintf(w, "check failed: %v\n", cerr)
	}
	failed = min(failed, attempted)

	tr.attachObs(col, offset)
	perOp := map[string][]float64{}
	var residual int64
	var fps []map[string]float64
	for _, op := range ops {
		computeSelf(op.root)
		if r := op.root.dur() - sumSelf(op.root); abs64(r) > abs64(residual) {
			residual = r
		}
		m := layerMetrics(op, p.size, wl.name)
		for k, v := range m {
			perOp[k] = append(perOp[k], v)
		}
		fp := map[string]float64{}
		for _, k := range fingerprintCounters {
			fp[k] = m[k]
		}
		fps = append(fps, fp)
	}
	if p.stateDir != "" {
		n, err := checkFingerprint(fingerprintPath(p), fps)
		if err != nil {
			return report{}, err
		}
		if n > 0 {
			fmt.Fprintf(w, "fingerprint: %d counters differ from the first recorded run at this seed\n", n)
		}
		mismatches += n
		path := filepath.Join(p.stateDir, fmt.Sprintf("trace-%s-seed%d.json", p.workload, p.seed))
		if err := writeTrace(path, tr.roots); err != nil {
			return report{}, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %s\n", path)
	}

	metrics := map[string]metric{}
	for _, l := range perLayer {
		metrics[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) {
		if m, ok := metrics[name]; ok {
			m.Value = finite(v)
			metrics[name] = m
		}
	}
	for k, v := range perOp {
		set(k, median(v))
	}
	if len(plain) > 0 {
		set(opName(wl.name), median(plain))
		set("trace.overhead_frac", median(tracedWalls)/median(plain)-1)
	}
	for k, v := range inner {
		set(k, median(v))
	}
	for k, v := range errs {
		set(k, v)
	}
	if final := col.Metrics(); final.Refit.RadiusInflationMax > 0 {
		set("tree.radius_inflation_max", final.Refit.RadiusInflationMax)
	}
	set("failed_frac", float64(failed)/float64(attempted))
	set("trace.self_residual_ns", float64(residual))
	set("fingerprint.mismatches", float64(mismatches))

	for _, l := range perLayer {
		fmt.Fprintf(w, "%-26s %-5s %.6g\n", l.name, l.unit, metrics[l.name].Value)
	}
	return report{Correct: failed == 0 && mismatches == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// layerMetrics derives one traced op's per-layer metrics from its span
// tree, the collector's counter deltas and the instance's counters.
func layerMetrics(op tracedOp, sz sizes, workload string) map[string]float64 {
	lt := collectLayers(op.root)
	m := map[string]float64{}
	for _, s := range spanMetrics {
		if s.self {
			m[s.metric] = float64(lt.self[s.span]) / 1e9
		} else {
			m[s.metric] = float64(lt.dur[s.span]) / 1e9
		}
	}
	a, b := op.after, op.before
	terms := float64(a.M2PTerms() - b.M2PTerms())
	m["core.terms"] = terms
	m["core.pc"] = float64(a.Accepts() - b.Accepts())
	m["core.pp"] = float64(a.PPPairs() - b.PPPairs())
	for d := len(a.DegreeHist) - 1; d >= 0; d-- {
		prev := int64(0)
		if d < len(b.DegreeHist) {
			prev = b.DegreeHist[d]
		}
		if a.DegreeHist[d] > prev {
			m["core.max_degree"] = float64(d)
			break
		}
	}
	evalNS := float64(lt.dur["core/fields"] + lt.dur["core/potentials"] + lt.dur["core/potentials-at"])
	if terms > 0 {
		m["core.eval_ns_per_term"] = evalNS / terms
	}
	for k, v := range op.counters {
		m[k] = v
	}
	passes := lt.count["core/upward"] + lt.count["core/refit/upward"] + lt.count["core/recharge/upward"]
	if up := m["core.upward_terms"] * float64(passes); up > 0 {
		upNS := lt.dur["core/upward"] + lt.dur["core/refit/upward"] + lt.dur["core/recharge/upward"]
		m["core.upward_ns_per_term"] = float64(upNS) / up
	}
	if mt := m["fmm.m2l_terms"]; mt > 0 {
		m["fmm.m2l_ns_per_term"] = float64(lt.dur["fmm/eval/m2l"]) / mt
	}

	ra, rb := a.Refit, b.Refit
	m["core.refit.count"] = float64(ra.Updates - rb.Updates)
	if u := ra.Updates - rb.Updates; u > 0 {
		m["core.refit.fallback_frac"] = float64(ra.Rebuilds-rb.Rebuilds) / float64(u)
	}
	m["tree.migrants"] = float64(ra.Migrants - rb.Migrants)
	m["tree.splits"] = float64(ra.Splits - rb.Splits)
	m["tree.merges"] = float64(ra.Merges - rb.Merges)

	pa, pb := a.Plan, b.Plan
	reused, rebuilt := pa.EntriesReused-pb.EntriesReused, pa.EntriesRebuilt-pb.EntriesRebuilt
	if reused+rebuilt > 0 {
		m["plan.reuse_frac"] = float64(reused) / float64(reused+rebuilt)
	}
	m["plan.collect_s"] = float64(pa.CollectNS-pb.CollectNS) / 1e9
	m["plan.invalidated"] = float64(pa.Invalidated - pb.Invalidated)
	m["plan.drops"] = float64(pa.Drops - pb.Drops)
	m["sched.steals"] = float64(a.Batch.Steals - b.Batch.Steals)

	if lt.count["sim.Step"] > 0 {
		m["sim.substeps"] = float64(a.Block.Substeps - b.Block.Substeps)
		if workload == "plummer-block" {
			m["sim.force_evals"] = float64(a.Block.ForceEvals - b.Block.ForceEvals)
		} else {
			// A global-dt step evaluates every particle once per core/fields.
			m["sim.force_evals"] = float64(sz.plummerN * lt.count["core/fields"])
		}
	}
	return m
}

// checkFingerprint compares the per-op counters of this run with those of
// the first run recorded at the same path and returns how many differ over
// the ops both ran. Ops beyond the recorded ones extend the record.
func fingerprintPath(p params) string {
	return filepath.Join(p.stateDir, fmt.Sprintf("fingerprint-%s-seed%d-w%d.json", p.workload, p.seed, p.workers))
}

func checkFingerprint(path string, ops []map[string]float64) (int, error) {
	var first []map[string]float64
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return 0, err
	default:
		if err := json.Unmarshal(b, &first); err != nil {
			return 0, fmt.Errorf("reading %s: %w", path, err)
		}
	}
	diff := 0
	for i := 0; i < min(len(first), len(ops)); i++ {
		for k, v := range ops[i] {
			//lint:ignore floatcmp the counters are integers; any difference is a mismatch
			if first[i][k] != v {
				diff++
			}
		}
	}
	if len(ops) <= len(first) {
		return diff, nil
	}
	first = append(first, ops[len(first):]...)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	b, err = json.Marshal(first)
	if err != nil {
		return 0, err
	}
	return diff, os.WriteFile(path, b, 0o644)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
