// Package engine holds the tree lifecycle shared by the treecode (core) and
// the Fast Multipole Method (fmm): octree build, Theorem 3 degree selection,
// the degree each expansion is stored at and how it is built, the upward
// P2M/M2M pass, and the three ways the tree is kept alive across calls —
// refit to new positions (Update/UpdateFor, with a full-rebuild fallback),
// recharge with new source strengths (SetCharges), and rebuild. The paper's
// closing section notes that its per-cluster degree selection "can easily
// be extended to the Fast Multipole Method"; both evaluators embed one
// Engine and keep only what differs: core its interaction-plan cache and
// walks, fmm its dual-tree sweep.
//
// Each node's expansion is stored at a degree tree.Node.UpDegree no lower
// than its own selected Degree, and built one of two ways: by direct P2M
// over the node's contiguous range [Start, End), or by M2M from children
// that are all stored at least as high (M2M is exact only then). A cost
// pass run with every degree selection picks, per node, the stored degree
// and the build path that make the whole upward pass cheapest under an
// operation-count model (costPass). In triangular storage a lower-degree
// expansion is a prefix of a higher-degree one, so evaluation reads the
// prefix it needs.
package engine

import (
	"fmt"
	"math"
	"time"

	"treecode/internal/bounds"
	"treecode/internal/harmonics"
	"treecode/internal/multipole"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// RebuildKind reports which maintenance path Update took.
type RebuildKind int

const (
	// RebuildRefit means the existing octree was maintained in place:
	// migrants re-bucketed locally, node statistics refreshed bottom-up
	// with conservative radii, and expansion storage reused.
	RebuildRefit RebuildKind = iota
	// RebuildFull means the drift policy fell back to a full parallel
	// reconstruction (out-of-root particles, migrant fraction, re-sort
	// volume, or radius inflation past their thresholds).
	RebuildFull
)

func (k RebuildKind) String() string {
	if k == RebuildFull {
		return "full"
	}
	return "refit"
}

// Config is the part of an evaluator's configuration the lifecycle reads.
// The embedding evaluator fills it from its own (already validated) Config.
type Config struct {
	// Name prefixes the span names (<Name>/build, <Name>/upward,
	// <Name>/refit, <Name>/recharge) and error messages.
	Name string
	// Adaptive selects Theorem 3 per-cluster degrees; otherwise every node
	// gets Degree.
	Adaptive bool
	// Alpha, Degree and MaxDegree parameterize the degree selector.
	Alpha     float64
	Degree    int
	MaxDegree int
	// RefQuantile picks the Theorem 3 reference leaf by charge quantile; 0
	// is the theorem's smallest-charge leaf.
	RefQuantile float64
	// LeafCap and Workers configure tree construction and the upward pass.
	LeafCap int
	Workers int
	// Obs receives spans, degree clamps, refit metrics and events. Nil
	// disables recording.
	Obs *obs.Collector
}

// Hooks let the embedding evaluator keep its derived state in step with
// the tree. Either may be nil.
type Hooks struct {
	// Reset runs after every tree build, inside the build span and before
	// degree selection, with the new tree: on construction (reason "") and
	// on Update's rebuild fallback (reason names the drift-policy trigger).
	// The new tree shares no nodes with the old one.
	Reset func(t *tree.Tree, reason string)
	// Refit runs inside the refit span, after degree re-selection and
	// before the upward pass, with the refit's migrant count. sp is the
	// refit span, for the hook's own child spans.
	Refit func(sp *obs.Span, migrants int)
}

// Engine is a built octree with selected degrees and upward expansions.
type Engine struct {
	Tree *tree.Tree

	cfg     Config
	hooks   Hooks
	maxP    int   // largest selected (and stored) degree
	upTerms int64 // P2M/M2M terms of one upward pass
	buildT  time.Duration
	costs   costPass // upward cost pass scratch, reused across re-selections

	// Span names, <Name>/<phase>, joined once so the refit and recharge
	// paths do not allocate them per call.
	spBuild, spUpward, spRefit, spRecharge string
}

// New builds the octree, selects per-node degrees and runs the upward
// pass. It rejects NaN or infinite positions and charges.
func New(set *points.Set, cfg Config, hooks Hooks) (*Engine, error) {
	e := &Engine{cfg: cfg, hooks: hooks,
		spBuild: cfg.Name + "/build", spUpward: cfg.Name + "/upward",
		spRefit: cfg.Name + "/refit", spRecharge: cfg.Name + "/recharge"}
	if set != nil {
		for i, p := range set.Particles {
			if !finiteV(p.Pos) || !finite(p.Charge) {
				return nil, fmt.Errorf("%s: particle %d has non-finite position %v or charge %v", cfg.Name, i, p.Pos, p.Charge)
			}
		}
	}
	if err := e.build(set, ""); err != nil {
		return nil, err
	}
	return e, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func finiteV(v vec.V3) bool { return finite(v.X) && finite(v.Y) && finite(v.Z) }

// build constructs the octree, selects degrees, and runs the upward pass —
// shared by New and Update's full-rebuild fallback.
func (e *Engine) build(set *points.Set, reason string) error {
	start := time.Now()
	bsp := e.cfg.Obs.Start(e.spBuild)
	sp := bsp.Child("tree")
	tr, err := tree.Build(set, tree.Config{LeafCap: e.cfg.LeafCap, Workers: e.cfg.Workers})
	sp.End()
	if err != nil {
		bsp.End()
		return err
	}
	e.Tree = tr
	if e.hooks.Reset != nil {
		e.hooks.Reset(tr, reason)
	}
	sp = bsp.Child("degrees")
	e.selectDegrees()
	sp.End()
	bsp.End()
	e.Upward()
	e.buildT = time.Since(start)
	return nil
}

// Update moves the engine to new particle positions (given in the original
// order used to build it), keeping it alive across timesteps. The octree is
// maintained in place by tree.Update — particles that stayed inside their
// leaf keep their slot, migrants re-bucket locally, statistics and
// conservative radii refresh bottom-up — and the upward pass reuses
// expansion storage exactly like SetCharges, so the steady-state
// (zero-migrant) path allocates next to nothing. When the drift policy
// detects too much motion, Update falls back to a full parallel rebuild;
// the returned RebuildKind reports which path ran. Conservative radii only
// grow, so acceptance and separation criteria see larger clusters and stay
// within the fresh-build error bound.
//
// Degrees are re-selected only when the decomposition changed (any
// migrant): Theorem 3 degrees depend on cluster charges and box sizes, not
// on where particles sit inside their boxes, so a pure in-box drift keeps
// the selection. It rejects NaN or infinite positions and must not run
// concurrently with evaluation calls.
func (e *Engine) Update(pos []vec.V3) (RebuildKind, error) {
	return e.UpdateFor(pos, nil)
}

// UpdateFor is Update with a block-timestep active mask: active marks, by
// original particle index, the particles that may have moved since the
// previous maintenance pass. tree.Update then restricts its migrant census
// and (when no migrant is found) its geometry refresh to the marked
// particles' ancestor chains, zeroing the drift of untouched nodes so plan
// revalidation does not re-consume drift an earlier refresh recorded.
// Passing a mask that omits a moved particle is a contract violation. A
// nil mask is Update.
func (e *Engine) UpdateFor(pos []vec.V3, active []bool) (RebuildKind, error) {
	t := e.Tree
	if len(pos) != len(t.Pos) {
		return RebuildFull, fmt.Errorf("%s: %d positions for %d particles", e.cfg.Name, len(pos), len(t.Pos))
	}
	for i, p := range pos {
		if !finiteV(p) {
			return RebuildFull, fmt.Errorf("%s: particle %d has non-finite position %v", e.cfg.Name, i, p)
		}
	}
	start := time.Now()
	sp := e.cfg.Obs.Start(e.spRefit)
	c := sp.Child("tree")
	st, err := t.Update(pos, tree.UpdateOpts{Workers: e.cfg.Workers, Active: active})
	c.End()
	if err != nil {
		sp.End()
		return RebuildFull, err
	}
	if st.NeedRebuild {
		sp.End()
		e.cfg.Obs.AddRefit(obs.RefitMetrics{Updates: 1, Rebuilds: 1,
			Migrants: int64(st.Migrants), RadiusInflationMax: st.MaxInflation})
		e.cfg.Obs.AddEvent(obs.EventRebuildFallback, st.RebuildReason(), float64(st.Migrants))
		return RebuildFull, e.build(e.snapshotSet(pos), st.RebuildReason())
	}
	if st.Migrants > 0 {
		// The decomposition changed: leaves split or merged, cluster
		// charges moved between boxes. Re-select degrees for the new shape.
		c = sp.Child("degrees")
		e.selectDegrees()
		c.End()
	}
	if e.hooks.Refit != nil {
		e.hooks.Refit(sp, st.Migrants)
	}
	c = sp.Child("upward")
	e.upward()
	c.End()
	sp.End()
	e.buildT = time.Since(start)
	e.cfg.Obs.AddRefit(obs.RefitMetrics{Updates: 1, Refits: 1,
		Migrants: int64(st.Migrants), Splits: int64(st.Splits), Merges: int64(st.Merges),
		RadiusInflationMax: st.MaxInflation})
	return RebuildRefit, nil
}

// snapshotSet reassembles a points.Set in original particle order from the
// new positions and the tree's (permuted) charges, for the full-rebuild
// fallback.
func (e *Engine) snapshotSet(pos []vec.V3) *points.Set {
	t := e.Tree
	ps := make([]points.Particle, len(pos))
	for i, orig := range t.Perm {
		ps[orig] = points.Particle{Pos: pos[orig], Charge: t.Q[i]}
	}
	return &points.Set{Particles: ps}
}

// UpwardTerms returns the multipole terms one upward pass computes: the
// stored-degree term count per particle at each P2M-built node and once
// per M2M-built node. It changes only when degrees are re-selected.
func (e *Engine) UpwardTerms() int64 { return e.upTerms }

// BuildTime returns the duration of the last build or refit (tree, degree
// selection and upward pass).
func (e *Engine) BuildTime() time.Duration { return e.buildT }

// selectDegrees assigns every node its evaluation degree (Theorem 3 for the
// adaptive method), then runs the upward cost pass that fixes the degree
// each expansion is stored at and how it is built, and refreshes maxP and
// the upward term count.
func (e *Engine) selectDegrees() {
	var sel *bounds.DegreeSelector
	if e.cfg.Adaptive {
		var aRef, sRef float64
		var ok bool
		if e.cfg.RefQuantile > 0 {
			aRef, sRef, ok = e.Tree.LeafStatsQuantile(e.cfg.RefQuantile)
		} else {
			aRef, sRef, ok = e.Tree.MinLeafStats()
		}
		if ok {
			sel = bounds.NewDegreeSelector(e.cfg.Alpha, e.cfg.Degree, e.cfg.MaxDegree, aRef, sRef)
		}
	}
	e.maxP = 0
	e.Tree.Walk(func(n *tree.Node) {
		if sel != nil {
			n.Degree = sel.Degree(n.AbsCharge, n.Size())
		} else {
			n.Degree = e.cfg.Degree
		}
		if n.Degree > e.maxP {
			e.maxP = n.Degree
		}
	})
	if sel != nil {
		// Surface silent accuracy loss: selections stopped at the Legendre
		// stability cap show up in the metrics instead of vanishing.
		e.cfg.Obs.AddDegreeClamps(sel.ClampCount())
	}
	e.upTerms = e.costs.run(e.Tree, e.maxP)
}

// Upward runs the upward multipole pass level-synchronized on the
// work-stealing pool: all nodes of the deepest level first, so every M2M
// reads fully-built children. Each node is built the way the cost pass
// chose — P2M over its own range or M2M from its children — at its stored
// degree. Each worker carries one spherical-harmonics scratch buffer;
// per-node arithmetic (own range in tree order, children in fixed order)
// never depends on the schedule, so the expansions are bitwise identical
// at any worker count. New runs it once; it is exported so recharge paths
// and benchmarks can rerun it after charges change.
func (e *Engine) Upward() {
	sp := e.cfg.Obs.Start(e.spUpward)
	defer sp.End()
	e.upward()
}

func (e *Engine) upward() {
	t := e.Tree
	tree.LevelSyncUp(t, e.cfg.Workers,
		func() []complex128 { return make([]complex128, harmonics.Len(e.maxP)) },
		func(n *tree.Node, buf []complex128) {
			p := n.UpDegree
			if n.Mp == nil || cap(n.Mp.Coeff) < harmonics.Len(p) {
				n.Mp = multipole.NewExpansion(n.Center, p)
			} else {
				// Recharge/refit path: reuse the coefficient storage
				// instead of reallocating, also when a re-plan lowered the
				// stored degree. Clear keeps the old center, and a refit
				// may have moved the node's, so re-anchor explicitly.
				n.Mp.Degree, n.Mp.Coeff = p, n.Mp.Coeff[:harmonics.Len(p)]
				n.Mp.Clear()
				n.Mp.Center = n.Center
			}
			if n.UpDirect {
				for i := n.Start; i < n.End; i++ {
					n.Mp.AddParticleAt(t.Pos[i], t.Q[i], buf[:harmonics.Len(p)])
				}
				if !n.IsLeaf() {
					// Sum A over the children as M2M does, so a node's
					// Theorem 1 charge has the same bits on either path.
					var a float64
					for _, c := range n.Children {
						a += c.Mp.AbsCharge
					}
					n.Mp.AbsCharge = a
				}
			} else {
				for _, c := range n.Children {
					n.Mp.AccumulateTranslatedBuf(c.Mp, buf[:harmonics.Len(p)])
				}
			}
			// M2M's translated radius (child radius + shift) can overshoot
			// the true cluster radius, and after a refit the tree's radius
			// is the conservative one; keep the tighter of the two.
			if n.Radius < n.Mp.Radius {
				n.Mp.Radius = n.Radius
			}
		})
}

// SetCharges replaces the particle charges (given in the original order used
// to build the engine) and reruns the upward pass. Node charge statistics
// refresh bottom-up — leaves rescan their own range, internal nodes sum
// children — and expansion storage is reused, so the per-call cost is
// O(nodes + n) plus the upward pass. The tree geometry, expansion centers
// and degree selection are kept: degrees are a property of the
// decomposition chosen at construction, exactly as the paper prescribes for
// iterative solvers where only the source strengths change per iteration.
// It rejects NaN or infinite charges and must not run concurrently with
// evaluation calls.
func (e *Engine) SetCharges(q []float64) error {
	t := e.Tree
	if len(q) != len(t.Q) {
		return fmt.Errorf("%s: %d charges for %d particles", e.cfg.Name, len(q), len(t.Q))
	}
	for i, x := range q {
		if !finite(x) {
			return fmt.Errorf("%s: particle %d has non-finite charge %v", e.cfg.Name, i, x)
		}
	}
	sp := e.cfg.Obs.Start(e.spRecharge)
	defer sp.End()
	for i, orig := range t.Perm {
		t.Q[i] = q[orig]
	}
	c := sp.Child("stats")
	t.RefreshChargeStats(e.cfg.Workers)
	c.End()
	c = sp.Child("upward")
	e.upward()
	c.End()
	return nil
}
