// Command perfbench is the treecode's benchmark. It generates the inputs
// of one named workload from a seed, drives the program through its public
// packages (sim, core, fmm, bem, krylov) one op at a time in a closed loop,
// checks the outputs against direct summation, and prints its metrics.
//
//	perfbench --workload plummer-step --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced ops and reports the per-layer metrics
// from the trace. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// human-readable report. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// params are one run's settings.
type params struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	workers   int
	size      sizes
	setupReps int    // set-ups timed for setup_s (the last one is kept)
	stateDir  string // fingerprints and traces; "" writes nothing
	minOps    int    // ops run even past the deadline
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	p := params{size: fullSizes, setupReps: 3, minOps: 1}
	var traceFlag int
	flag.StringVar(&p.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&p.seed, "seed", 1, "input seed")
	flag.Float64Var(&p.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&p.stateDir, "state", ".bench_build/perfbench", "directory for traces and counter fingerprints")
	flag.Parse()
	p.trace = traceFlag != 0
	p.workers = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if p.workload == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --workload is required")
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	host(out, p)
	var rep report
	var err error
	if p.workload == "all" {
		rep, err = runAll(out, p)
	} else {
		rep, err = run(out, p)
	}
	if err == nil {
		var b []byte
		if b, err = json.Marshal(rep); err == nil {
			fmt.Fprintf(out, "%s\n", b)
		}
	}
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// host prints the host fingerprint and load shape.
func host(w *bufio.Writer, p params) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "host: cpu=%q numcpu=%d gomaxprocs=%d go=%s\n", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "load: closed loop, 1 client, one op at a time; workers=%d seed=%d seconds=%g trace=%v\n",
		p.workers, p.seed, p.seconds, p.trace)
}

// runAll runs every workload in turn and merges their metrics under
// "<workload>.<metric>".
func runAll(w *bufio.Writer, p params) (report, error) {
	all := report{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range workloads {
		q := p
		q.workload = wl.name
		rep, err := run(w, q)
		if err != nil {
			return all, fmt.Errorf("%s: %w", wl.name, err)
		}
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, v := range rep.Metrics {
			all.Metrics[wl.name+"."+k] = v
		}
	}
	return all, nil
}

// run runs one workload: generation, set-up, ops for the measured seconds,
// then the output checks.
func run(w *bufio.Writer, p params) (report, error) {
	wl, err := lookup(p.workload)
	if err != nil {
		return report{}, err
	}
	setup, err := wl.prepare(env{seed: p.seed, workers: p.workers, size: p.size})
	if err != nil {
		return report{}, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(w, "workload: %s\n", wl.name)
	if p.trace {
		return runTraced(w, p, wl, setup)
	}
	return runTimed(w, p, wl, setup)
}

// runTimed measures the end-to-end metrics with tracing off.
func runTimed(w *bufio.Writer, p params, wl workload, setup setupFunc) (report, error) {
	var inst instance
	var setups []float64
	// Cheap set-ups repeat until they have taken two seconds, for a
	// steadier median.
	var spent float64
	for i := 0; i < max(p.setupReps, 1) || (i < 8*p.setupReps && spent < 2); i++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = setup(nil)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	heap := liveHeapMiB()

	walls, inner := []float64{}, map[string][]float64{}
	attempted, failed := 0, 0
	start := time.Now()
	var wall float64
	for attempted < p.minOps || !done(start, wall, p.seconds) {
		t0 := time.Now()
		times, err := safeOp(inst, nil)
		wall = time.Since(t0).Seconds()
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(w, "op %d failed: %v\n", attempted, err)
			continue
		}
		walls = append(walls, wall)
		for k, v := range times {
			inner[k] = append(inner[k], v...)
		}
	}
	errs, cerr := safeCheck(inst)
	if cerr != nil {
		failed++
		fmt.Fprintf(w, "check failed: %v\n", cerr)
	}
	failed = min(failed, attempted)

	fmt.Fprintln(w, summary(opName(wl.name), "s", walls))
	fmt.Fprintf(w, "%-14s %-5s mean=%.6g over %d ops\n", "op_s", "s", mean(walls), len(walls))
	for _, k := range sortedKeys(inner) {
		fmt.Fprintln(w, summary(k, "s", inner[k]))
	}
	fmt.Fprintln(w, summary("setup_s", "s", setups))
	fmt.Fprintf(w, "%-14s %-5s %.6g\n", "live_heap_mb", "MiB", heap)
	for _, k := range sortedKeys(errs) {
		fmt.Fprintf(w, "%-14s %-5s %.6g\n", k, "1", errs[k])
	}
	fmt.Fprintf(w, "%-14s %-5s %.6g (%d of %d ops)\n", "failed_frac", "1", float64(failed)/float64(attempted), failed, attempted)

	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"op_s":         {finite(mean(walls)), "s"},
		"setup_s":      {median(setups), "s"},
		"live_heap_mb": {heap, "MiB"},
	}}
	return rep, nil
}

// done reports whether a run that started at start should stop, given the
// wall time of its last op: it stops once the next op, if it took as long,
// would end more than halfway past the measured seconds. A run then
// measures close to its seconds on average even when an op takes a large
// share of them.
func done(start time.Time, last, seconds float64) bool {
	return time.Since(start).Seconds()+last/2 >= seconds
}

// opName names a workload's op wall time in the report: step_s, solve_s
// or cycle_s.
func opName(workload string) string {
	switch workload {
	case "bem-sphere":
		return "solve_s"
	case "cold-uniform":
		return "cycle_s"
	}
	return "step_s"
}

// liveHeapMiB returns the live heap after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// safeOp runs one op, turning a panic into an error.
func safeOp(inst instance, tr *tracer) (times map[string][]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return inst.op(tr)
}

// safeCheck runs the output check, turning a panic into an error.
func safeCheck(inst instance) (errs map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in check: %v", r)
		}
	}()
	return inst.check()
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// finite maps NaN and ±Inf to 0 so the report stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
