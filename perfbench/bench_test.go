package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"treecode/internal/obs"
)

var discard = bufio.NewWriter(io.Discard)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayerNames []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return endToEnd, perLayerNames
}

func tinyParams(t *testing.T, workload string, trace bool) params {
	return params{workload: workload, seed: 7, trace: trace, workers: 2, size: tinySizes,
		setupReps: 1, minOps: 2, stateDir: t.TempDir()}
}

// assertMetrics checks that rep holds exactly the named metrics and that
// every op succeeded.
func assertMetrics(t *testing.T, rep report, names []string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
		t.Errorf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
	}
	for _, n := range names {
		if _, ok := rep.Metrics[n]; !ok {
			t.Errorf("metric %s not emitted", n)
		}
	}
	if len(rep.Metrics) != len(names) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(names))
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the emitted metric names against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	endToEnd, layers := benchmarkNames(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rep, err := run(discard, tinyParams(t, wl.name, false))
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, rep, endToEnd)
			for _, n := range endToEnd {
				if v := rep.Metrics[n].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", n, v)
				}
			}

			p := tinyParams(t, wl.name, true)
			rep, err = run(discard, p)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, rep, layers)
			if v := rep.Metrics["failed_frac"].Value; v != 0 {
				t.Errorf("failed_frac = %v", v)
			}
			if v := rep.Metrics["trace.self_residual_ns"].Value; v != 0 {
				t.Errorf("self times miss the op wall time by %v ns", v)
			}
			// A second traced run at the same seed repeats the exact counters.
			rep, err = run(discard, p)
			if err != nil {
				t.Fatal(err)
			}
			if v := rep.Metrics["fingerprint.mismatches"].Value; v != 0 {
				t.Errorf("%v exact counters differ between runs", v)
			}
		})
	}
}

// checkTree asserts that every child lies inside its parent and returns
// the tree's total self time.
func checkTree(t *testing.T, s *span) int64 {
	t.Helper()
	total := s.Self
	var childDur int64
	for _, c := range s.Children {
		if c.Start < s.Start || c.End > s.End {
			t.Errorf("%s [%d,%d] outside %s [%d,%d]", c.Name, c.Start, c.End, s.Name, s.Start, s.End)
		}
		childDur += c.dur()
		total += checkTree(t, c)
	}
	if childDur > s.dur() {
		t.Errorf("children of %s last %d ns, longer than its %d ns", s.Name, childDur, s.dur())
	}
	return total
}

// TestSelfTimesReconcile nests real obs spans under benchmark spans and
// checks that children stay inside their parents and that self times add
// up to the op's wall time.
func TestSelfTimesReconcile(t *testing.T) {
	tr := newTracer()
	t0 := tr.now()
	col := obs.New()
	offset := (t0 + tr.now()) / 2

	op := tr.begin("op")
	call := tr.begin("core.New")
	b := col.Start("core/build")
	c := b.Child("tree")
	time.Sleep(2 * time.Millisecond)
	c.End()
	w := b.ChildWorker("worker", 0) // per-worker slices are not layers
	time.Sleep(time.Millisecond)
	w.End()
	b.End()
	u := col.Start("core/upward")
	time.Sleep(time.Millisecond)
	u.End()
	tr.end(call)
	time.Sleep(time.Millisecond)
	tr.end(op)
	stray := col.Start("core/potentials-at") // outside every benchmark span
	stray.End()

	tr.attachObs(col, offset)
	computeSelf(op)
	if got := checkTree(t, op); got != op.dur() {
		t.Errorf("self times sum to %d ns, op lasted %d ns", got, op.dur())
	}
	lt := collectLayers(op)
	if lt.count["core/build"] != 1 || lt.count["core/build/tree"] != 1 || lt.count["core/upward"] != 1 {
		t.Errorf("nesting lost obs spans: %v", lt.count)
	}
	if lt.count["core/build/worker"] != 0 || lt.count["core/potentials-at"] != 0 {
		t.Errorf("worker or stray spans attached: %v", lt.count)
	}
	if lt.self["core.New"] < 0 || lt.self["op"] < time.Millisecond.Nanoseconds() {
		t.Errorf("self times: %v", lt.self)
	}
}

// TestSelfOverlappingChildren checks that overlapping children are covered
// once, not twice.
func TestSelfOverlappingChildren(t *testing.T) {
	s := &span{Name: "p", Start: 0, End: 100, Children: []*span{
		{Name: "a", Start: 10, End: 50},
		{Name: "b", Start: 40, End: 70},
		{Name: "c", Start: 90, End: 120},
	}}
	computeSelf(s)
	if s.Self != 100-60-10 {
		t.Errorf("self = %d, want 30", s.Self)
	}
}

func TestTail(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Error("tail of 10 samples should be unavailable")
	}
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v, ok := tail(xs)
	if !ok || pct != 50 || v != 10 {
		t.Errorf("tail = p%v %v %v, want p50 10", pct, v, ok)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
