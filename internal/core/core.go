// Package core implements the paper's treecodes: the original fixed-degree
// Barnes-Hut method and the improved adaptive-degree method that selects a
// multipole degree per cluster from its net charge (Theorem 3), equalizing
// the per-interaction error bound and reducing the aggregate error from
// O(total charge) to O(log n) at marginal extra cost.
//
// The evaluator embeds the engine shared with the FMM (internal/engine): an
// octree whose nodes carry multipole expansions built in a bottom-up pass
// (per node, P2M over its particles or M2M from its children, at a degree
// no lower than its own), kept alive across timesteps by refit and across
// solver iterations by recharge.
//
// Every target takes the interaction set of the paper's per-target walk
// with a multipole acceptance criterion: accepted clusters contribute
// through M2P, rejected leaves through direct summation. Potentials, Fields
// and FieldsFor compute that set once per target leaf (batched.go) from
// interaction plans cached across Update (plan.go), on the work-stealing
// scheduler; PotentialsAt, whose arbitrary targets have no leaf, walks per
// target. The paper's serial cost metric — the number of multipole terms
// evaluated, (p+1)^2 per interaction — is tracked in Stats.
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"treecode/internal/bounds"
	"treecode/internal/engine"
	"treecode/internal/mac"
	"treecode/internal/multipole"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/sched"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// Method selects between the paper's two algorithms.
type Method int

const (
	// Original is the classical fixed-degree Barnes-Hut method: every
	// cluster uses the same multipole degree.
	Original Method = iota
	// Adaptive is the paper's improved method: the degree of each cluster
	// grows with its net absolute charge per Theorem 3, so that every
	// accepted interaction carries the same error bound.
	Adaptive
)

func (m Method) String() string {
	if m == Adaptive {
		return "adaptive"
	}
	return "original"
}

// EvalMode is the type of the former traversal selector Config.Eval.
//
// Deprecated: the leaf-batched traversal is the only one; Config.Eval is
// ignored. The type, the field and EvalBatched remain only so that
// configurations written against the two-mode API (the benchmark's
// workload definitions among them) keep compiling.
type EvalMode int

// EvalBatched names the leaf-batched traversal, now the only one.
//
// Deprecated: ignored, see EvalMode.
const EvalBatched EvalMode = 1

// Config controls evaluator construction.
type Config struct {
	// Method selects fixed-degree (Original) or per-cluster degrees
	// (Adaptive). Default Original.
	Method Method
	// Alpha is the acceptance parameter of the paper's alpha-criterion,
	// 0 < Alpha < 1. Default 0.5.
	Alpha float64
	// MAC overrides the acceptance criterion. Default mac.Alpha{Alpha}.
	// The degree selection always uses Alpha.
	MAC mac.MAC
	// Degree is the multipole degree of the Original method and the
	// minimum (reference) degree of the Adaptive method. Default 4.
	Degree int
	// MaxDegree clamps adaptive degrees (relevant for unstructured
	// domains). Default Degree+20.
	MaxDegree int
	// LeafCap is the octree leaf capacity. Default 8.
	LeafCap int
	// Workers is the number of evaluation goroutines; 0 means GOMAXPROCS.
	Workers int
	// Eval is ignored.
	//
	// Deprecated: Potentials and Fields always run the leaf-batched
	// traversal; see EvalMode.
	Eval EvalMode
	// RefQuantile selects the Theorem 3 reference cluster among the
	// deepest-level leaves by charge quantile. 0 (default) is the theorem's
	// choice — the smallest-charge leaf, the most accurate and most
	// expensive; larger values (e.g. 0.5 for the median leaf) keep more
	// clusters at the minimum degree, trading error for terms. Only used
	// by the Adaptive method.
	RefQuantile float64
	// Soften is the Plummer softening length of direct (P2P) pairs: each
	// pair sees r^2 = |d|^2 + Soften^2, so a coincident source contributes
	// a finite potential and no field. Accepted clusters are far enough
	// away (r >> Soften) that the multipole far field stays unsoftened.
	// Default 0, the bare 1/r kernel.
	Soften float64
	// Obs attaches an observability collector: phase spans around tree
	// build, degree selection, expansion build and evaluation, plus
	// per-interaction metrics (MAC accept/reject per level, degree
	// histogram, opening ratios, Theorem 2 budget) gathered in per-worker
	// shards. Nil (the default) disables all recording; the hot path then
	// pays a single nil check per interaction.
	Obs *obs.Collector
}

func (c *Config) fill() {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.MaxDegree == 0 {
		c.MaxDegree = c.Degree + 20
	}
	if c.LeafCap == 0 {
		c.LeafCap = 8
	}
	if c.MAC == nil {
		c.MAC = mac.Alpha{Alpha: c.Alpha}
	}
}

// Validate checks the configuration after defaults are applied: the
// alpha-criterion needs 0 < Alpha < 1, degrees must be non-negative with
// MaxDegree >= Degree, LeafCap must be positive, Workers non-negative,
// RefQuantile in [0, 1], and Soften finite and non-negative. New
// validates automatically; command-line drivers call this early to reject
// bad flag values before any work is done.
func (c Config) Validate() error {
	c.fill()
	switch {
	case c.Alpha <= 0 || c.Alpha >= 1:
		return fmt.Errorf("core: alpha must be in (0,1), got %v", c.Alpha)
	case c.Degree < 0:
		return fmt.Errorf("core: negative degree %d", c.Degree)
	case c.MaxDegree < c.Degree:
		return fmt.Errorf("core: max degree %d below degree %d", c.MaxDegree, c.Degree)
	case c.LeafCap <= 0:
		return fmt.Errorf("core: leaf capacity must be positive, got %d", c.LeafCap)
	case c.Workers < 0:
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	case c.RefQuantile < 0 || c.RefQuantile > 1:
		return fmt.Errorf("core: reference quantile must be in [0,1], got %v", c.RefQuantile)
	case !(c.Soften >= 0) || math.IsInf(c.Soften, 1):
		return fmt.Errorf("core: softening length must be finite and non-negative, got %v", c.Soften)
	}
	return nil
}

// Stats aggregates the cost and accuracy instrumentation of one evaluation.
type Stats struct {
	Terms       int64   // multipole series terms evaluated: sum (p+1)^2, the paper's metric
	PC          int64   // particle-cluster (M2P) interactions
	PP          int64   // particle-particle (direct) interactions
	BoundSum    float64 // sum over targets of per-target error-bound totals
	MaxDegree   int     // largest degree used in an accepted interaction
	BuildTime   time.Duration
	EvalTime    time.Duration
	TreeHeight  int
	TreeNodes   int
	TreeLeaves  int
	UpwardTerms int64 // terms computed in the P2M/M2M upward pass
}

// add merges o into s (not concurrency-safe; workers merge at the end).
func (s *Stats) add(o *Stats) {
	s.Terms += o.Terms
	s.PC += o.PC
	s.PP += o.PP
	s.BoundSum += o.BoundSum
	if o.MaxDegree > s.MaxDegree {
		s.MaxDegree = o.MaxDegree
	}
}

// RebuildKind reports which maintenance path Evaluator.Update took; it is
// the engine's type, shared with the FMM.
type RebuildKind = engine.RebuildKind

// The maintenance paths, see engine.RebuildRefit and engine.RebuildFull.
const (
	RebuildRefit = engine.RebuildRefit
	RebuildFull  = engine.RebuildFull
)

// Evaluator computes potentials/fields for a particle set with a treecode.
// The embedded engine owns the tree lifecycle — build, degree selection,
// upward pass, Update/UpdateFor, SetCharges — shared with the FMM; the
// evaluator keeps the leaf list and the interaction-plan cache in step with
// it through two hooks.
type Evaluator struct {
	*engine.Engine
	Cfg Config

	leaves []*tree.Node // tree-ordered leaves: the evaluation's task list
	plans  []leafPlan   // cached interaction plans, index-aligned with leaves (plan.go)
	// mu serializes evaluations: the first evaluation after construction or
	// Update builds or repairs plans, which concurrent calls must not see
	// half-written.
	mu sync.Mutex
}

// New builds the octree, selects per-node degrees, and runs the upward
// multipole pass. It rejects NaN or infinite positions and charges.
func New(set *points.Set, cfg Config) (*Evaluator, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{Cfg: cfg}
	eng, err := engine.New(set, engine.Config{
		Name: "core", Adaptive: cfg.Method == Adaptive,
		Alpha: cfg.Alpha, Degree: cfg.Degree, MaxDegree: cfg.MaxDegree,
		RefQuantile: cfg.RefQuantile, LeafCap: cfg.LeafCap, Workers: cfg.Workers,
		Obs: cfg.Obs,
	}, engine.Hooks{Reset: e.resetPlans, Refit: e.refitPlans})
	if err != nil {
		return nil, err
	}
	e.Engine = eng
	return e, nil
}

// resetPlans starts a fresh leaf list and an empty plan store after a tree
// build: the new tree shares no nodes with any cached plan, so every leaf
// re-traverses from scratch.
func (e *Evaluator) resetPlans(t *tree.Tree, reason string) {
	if e.plans != nil {
		e.Cfg.Obs.AddPlanDrop("full rebuild: "+reason, int64(len(e.plans)))
	}
	e.leaves = t.Leaves()
	e.plans = nil
}

// refitPlans revalidates cached interaction plans against a refit's drift
// before the engine hands back to evaluation: refresh the leaf list and
// realign the store when the decomposition changed, then consume each
// node's recorded geometry drift against the slack every plan entry was
// cached with.
func (e *Evaluator) refitPlans(sp *obs.Span, migrants int) {
	c := sp.Child("plans")
	if migrants > 0 {
		e.leaves = e.Tree.Leaves()
	}
	e.revalidatePlans(migrants)
	c.End()
}

// Potentials returns the potential at every particle (self-interaction
// excluded), in the original particle order, along with evaluation stats.
func (e *Evaluator) Potentials() ([]float64, *Stats) {
	return e.PotentialsWithWorkers(e.Cfg.Workers)
}

// PotentialsWithWorkers is Potentials with an explicit worker count for
// this call only (0 means GOMAXPROCS). Evaluations of one evaluator hold
// its lock for their whole run, because a call may build or repair the
// persistent interaction plans: concurrent calls are safe and run one after
// another. Update mutates the tree and must not overlap an evaluation. The
// results are bitwise independent of the worker count.
func (e *Evaluator) PotentialsWithWorkers(workers int) ([]float64, *Stats) {
	phi, _, stats := e.evaluate("core/potentials", nil, workers, false)
	return phi, stats
}

// atChunk is the number of consecutive targets in one PotentialsAt work
// unit, the paper's w: arbitrary targets carry no leaf grouping, so runs of
// caller-ordered targets take the place of target leaves.
const atChunk = 64

// PotentialsAt evaluates the potential at arbitrary target points (no
// self-exclusion) by the per-target walk, in atChunk-target tasks on the
// work-stealing scheduler. It reads only the tree, so concurrent calls are
// safe and need no lock.
func (e *Evaluator) PotentialsAt(targets []vec.V3) ([]float64, *Stats) {
	out := make([]float64, len(targets))
	stats := e.newStats()
	sp := e.Cfg.Obs.Start("core/potentials-at")
	start := time.Now()
	var mu sync.Mutex
	sched.Run((len(targets)+atChunk-1)/atChunk, e.Cfg.Workers, func(id int, next func() (int, bool)) {
		wsp := sp.ChildWorker("worker", id)
		w := e.newWorker(false)
		for c, ok := next(); ok; c, ok = next() {
			for i := c * atChunk; i < min((c+1)*atChunk, len(targets)); i++ {
				out[i], _ = w.walk(e.Tree.Root, targets[i], -1)
			}
		}
		w.done(stats, &mu)
		wsp.End()
	})
	stats.EvalTime = time.Since(start)
	sp.End()
	return out, stats
}

// Fields returns the potential and field E = -grad(phi) at every particle
// (self-excluded), in original order.
func (e *Evaluator) Fields() ([]float64, []vec.V3, *Stats) {
	return e.evaluate("core/fields", nil, e.Cfg.Workers, true)
}

// FieldsFor is Fields restricted to a target subset: active marks, by
// original particle index, the targets to evaluate; every particle remains
// a source. The returned slices are full-length, with zero entries left
// for inactive particles. Active entries are bitwise identical to the
// corresponding Fields entries at the same positions: the leaf pass runs
// the identical kind-filtered passes over each leaf's plan, skipping
// inactive particles (whose per-particle sums are independent of the
// active ones). Target leaves without an active particle are not processed
// at all, so their cached interaction plans are neither built nor
// repaired: they survive active-only refits untouched for the step that
// next needs them. A nil mask is Fields.
func (e *Evaluator) FieldsFor(active []bool) ([]float64, []vec.V3, *Stats) {
	return e.evaluate("core/fields", active, e.Cfg.Workers, true)
}

// evaluate is the one driver behind Potentials, Fields and FieldsFor: it
// evaluates the targets the active mask selects (nil means all) under the
// span name, with the potential only or, when field is set, the potential
// and E = -grad(phi) (field is nil otherwise). Target leaves are the tasks
// of the work-stealing scheduler, one worker of the fixed output kind per
// goroutine; per-worker stats and shards merge at the end, and the pool's
// steal count folds into the batch metrics. With an active mask only leaves
// holding an active particle become tasks. Each task writes only its own
// plan slot, so plan builds and repairs race nothing within the call.
func (e *Evaluator) evaluate(span string, active []bool, workers int, field bool) ([]float64, []vec.V3, *Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.Tree
	n := len(t.Pos)
	phi := make([]float64, n)
	var f []vec.V3
	if field {
		f = make([]vec.V3, n)
	}
	stats := e.newStats()
	sp := e.Cfg.Obs.Start(span)
	start := time.Now()
	e.ensurePlans()
	var tasks []int
	if active != nil {
		tasks = make([]int, 0, len(e.leaves))
		for li, leaf := range e.leaves {
			for i := leaf.Start; i < leaf.End; i++ {
				if active[t.Perm[i]] {
					tasks = append(tasks, li)
					break
				}
			}
		}
	}
	count := len(e.leaves)
	if tasks != nil {
		count = len(tasks)
	}
	var mu sync.Mutex
	st := sched.Run(count, workers, func(id int, next func() (int, bool)) {
		wsp := sp.ChildWorker("worker", id)
		w := e.newWorker(field)
		w.active = active
		for k, ok := next(); ok; k, ok = next() {
			li := k
			if tasks != nil {
				li = tasks[k]
			}
			w.leafPass(li, phi, f)
		}
		w.done(stats, &mu)
		wsp.End()
	})
	e.Cfg.Obs.AddSteals(st.Steals)
	stats.EvalTime = time.Since(start)
	sp.End()
	return phi, f, stats
}

func (e *Evaluator) newStats() *Stats {
	return &Stats{
		TreeHeight:  e.Tree.Height,
		TreeNodes:   e.Tree.NNodes,
		TreeLeaves:  e.Tree.NLeaves,
		BuildTime:   e.BuildTime(),
		UpwardTerms: e.UpwardTerms(),
	}
}

// worker holds per-goroutine scratch state. field fixes the output kind
// when the worker is created: the potential and E = -grad(phi) when set,
// the potential alone otherwise (the returned field is then zero). shard is
// the worker's private observability accumulator (nil when obs is
// disabled); the single `w.shard != nil` branch is the hot path's whole obs
// cost in that case. The remaining fields serve the leaf pass (batched.go):
// stack and scratch are reused across leaf tasks (truncated, never
// reallocated once grown), so steady-state leaf processing performs no
// allocations.
type worker struct {
	e     *Evaluator
	field bool
	stats Stats
	shard *obs.Shard
	// active is the per-particle target mask of a FieldsFor evaluation
	// (original index order); nil means every particle is a target.
	active []bool
	// stack backs the explicit-DFS collect; scratch receives repaired
	// plans (swapped with the plan's old backing array afterwards).
	stack   []planFrame
	scratch []planEntry
	// Refinement-band tallies for the current leaf, flushed to the shard
	// once per leaf.
	refChecks  int64
	refAccepts int64
}

func (e *Evaluator) newWorker(field bool) *worker {
	return &worker{
		e:     e,
		field: field,
		shard: e.Cfg.Obs.NewShard(),
	}
}

// done merges the worker's stats into stats under mu and its metric shard
// into the collector.
func (w *worker) done(stats *Stats, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	stats.add(&w.stats)
	w.shard.Merge()
}

// walk evaluates the treecode at x over the subtree at n: the potential,
// and the field when the worker computes fields. self >= 0 excludes the
// particle at tree-order index self from direct sums.
//
//treecode:hot
func (w *worker) walk(n *tree.Node, x vec.V3, self int) (float64, vec.V3) {
	if w.e.Cfg.MAC.Accept(x, n) {
		return w.accept(n, x)
	}
	if w.shard != nil {
		w.shard.Reject(n.Level)
	}
	return w.walkBelow(n, x, self)
}

// accept evaluates one accepted cluster interaction (M2P), shared by the
// walk and the batched traversal: stats, the Theorem 1 truncation bound,
// the obs record, then the kernel of the worker's output kind — the fused
// potential kernel or the fused potential+gradient kernel.
//
//treecode:hot
func (w *worker) accept(n *tree.Node, x vec.V3) (float64, vec.V3) {
	p := n.Degree
	w.stats.Terms += multipole.Terms(p)
	w.stats.PC++
	if p > w.stats.MaxDegree {
		w.stats.MaxDegree = p
	}
	w.stats.BoundSum += multipole.TruncationBoundFast(n.Mp.AbsCharge, n.Mp.Radius, x.Dist(n.Mp.Center), p)
	if w.shard != nil {
		w.recordAccept(n, x, p)
	}
	if !w.field {
		return n.Mp.EvaluateFused(x, p), vec.V3{}
	}
	phi, grad := n.Mp.EvaluateFieldFused(x, p)
	return phi, grad.Neg()
}

// walkBelow evaluates the subtree at n for a target already known to
// reject n: a leaf is summed directly, an internal node descends into its
// children. The batched traversal's refinement band lands here too, after
// its own exact per-particle rejection.
//
//treecode:hot
func (w *worker) walkBelow(n *tree.Node, x vec.V3, self int) (float64, vec.V3) {
	if n.IsLeaf() {
		return w.direct(n, x, self)
	}
	var phi float64
	var f vec.V3
	for _, c := range n.Children {
		p, g := w.walk(c, x, self)
		phi += p
		f = f.Add(g)
	}
	return phi, f
}

// direct sums the particles of leaf n at x (P2P over the leaf's contiguous
// tree-order slice), skipping the self particle and coincident sources, and
// counts the pairs. Each pair sees r^2 = |d|^2 + Soften^2, so a zero
// softening length is the bare 1/r kernel.
//
//treecode:hot
func (w *worker) direct(n *tree.Node, x vec.V3, self int) (float64, vec.V3) {
	t := w.e.Tree
	eps2 := w.e.Cfg.Soften * w.e.Cfg.Soften
	var phi float64
	var f vec.V3
	var pp int64
	if w.field {
		for j := n.Start; j < n.End; j++ {
			if j == self {
				continue
			}
			d := x.Sub(t.Pos[j])
			r2 := d.Norm2() + eps2
			if r2 == 0 {
				continue // coincident target and source: skip, as direct does
			}
			invR := 1 / math.Sqrt(r2)
			phi += t.Q[j] * invR
			f = f.Add(d.Scale(t.Q[j] * invR / r2))
			pp++
		}
	} else {
		for j := n.Start; j < n.End; j++ {
			if j == self {
				continue
			}
			r := math.Sqrt(x.Sub(t.Pos[j]).Norm2() + eps2)
			if r == 0 {
				continue
			}
			phi += t.Q[j] / r
			pp++
		}
	}
	w.stats.PP += pp
	if w.shard != nil {
		w.shard.Direct(n.Level, pp)
	}
	return phi, f
}

// recordAccept feeds one accepted interaction to the worker's obs shard:
// level, degree, series terms, the opening ratio a/r actually realized,
// and the Theorem 2 predicted bound A alpha^{p+1}/(r(1-alpha)). Only
// called when the shard exists, so the distance is not recomputed on
// un-instrumented runs.
func (w *worker) recordAccept(n *tree.Node, x vec.V3, p int) {
	r := x.Dist(n.Center)
	ratio := 0.0
	if r > 0 {
		ratio = n.Radius / r
	}
	w.shard.Accept(n.Level, p, multipole.Terms(p), ratio,
		bounds.AlphaBound(n.AbsCharge, r, w.e.Cfg.Alpha, p))
}

// VisitInteractions walks the interaction set of a target exactly as the
// evaluator would, reporting each accepted cluster (with the degree it would
// be evaluated at) and each directly-summed particle (tree-order index).
// Used by the analysis tests, the parallel cost simulator, and the
// communication model.
func (e *Evaluator) VisitInteractions(x vec.V3, self int,
	cluster func(n *tree.Node, degree int), particle func(j int)) {
	e.visitFrom(e.Tree.Root, x, self, cluster, particle)
}

// visitFrom is VisitInteractions rooted at an arbitrary subtree; the
// tests' reference visitor of the leaf pass reuses it for refinement-band
// clusters.
func (e *Evaluator) visitFrom(root *tree.Node, x vec.V3, self int,
	cluster func(n *tree.Node, degree int), particle func(j int)) {
	var visit func(n *tree.Node)
	visit = func(n *tree.Node) {
		if e.Cfg.MAC.Accept(x, n) {
			if cluster != nil {
				cluster(n, n.Degree)
			}
			return
		}
		if n.IsLeaf() {
			if particle != nil {
				for j := n.Start; j < n.End; j++ {
					if j != self {
						particle(j)
					}
				}
			}
			return
		}
		for _, c := range n.Children {
			visit(c)
		}
	}
	visit(root)
}
