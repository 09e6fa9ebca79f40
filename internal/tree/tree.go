// Package tree builds the adaptive octree (the Barnes-Hut hierarchical
// domain decomposition) over a particle set. Nodes carry the cluster
// statistics the paper's analysis needs — net absolute charge A, expansion
// center, cluster radius a, box size, level — and a slot for the node's
// multipole expansion, whose degree the evaluator chooses (fixed for the
// original method, per-node for the improved method).
//
// Construction is a fused, parallel pipeline: every node's charge moments
// arrive from its parent's partition scan (the root pays one extra pass),
// so each particle range is read exactly once per level — the octant
// counting, the per-child charge-moment accumulation, and the node's own
// radius maxima all ride the same scan. The top of the tree is split
// serially into disjoint subtree ranges which then build as independent
// tasks on the work-stealing pool (internal/sched); per-task node censuses
// merge at the end. Every per-node quantity is a function of the node's
// own range in a fixed order, so the result is bitwise identical at any
// worker count.
package tree

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"treecode/internal/geom"
	"treecode/internal/multipole"
	"treecode/internal/points"
	"treecode/internal/sched"
	"treecode/internal/vec"
)

// MaxDepth caps tree depth so duplicate or near-duplicate points terminate.
const MaxDepth = 32

// Node is one box of the hierarchical decomposition.
type Node struct {
	Box      geom.AABB // cubic cell
	Level    int       // root is 0
	Children []*Node   // nil for leaves; non-nil children only
	Start    int       // particle range [Start, End) in tree order
	End      int

	Center    vec.V3  // expansion center: center of |charge|, or box center if A == 0
	Charge    float64 // net charge of the cluster
	AbsCharge float64 // A = sum |q_i|
	Radius    float64 // max distance from Center to a contained particle

	// Centroid and BRadius are the node's geometric bounding sphere: the
	// unweighted mean of the contained positions and the max distance from
	// it. The leaf-batched (dual-tree) evaluator tests the MAC against this
	// sphere when the node acts as a *target* group — unlike Center/Radius
	// it is independent of the charges, so extreme charge skew cannot
	// inflate the target sphere and widen the refinement band.
	Centroid vec.V3
	BRadius  float64

	Degree int // multipole degree selected by the evaluator
	// UpDegree is the degree Mp is stored at (>= Degree), and UpDirect
	// says how the upward pass builds it: by direct P2M over [Start, End)
	// (always for leaves), or else by M2M from children all stored at
	// UpDegree or above. The evaluator's upward cost pass sets both.
	UpDegree int
	UpDirect bool
	Mp       *multipole.Expansion // filled by the evaluator's upward pass

	// Drift and shape bookkeeping for cached interaction plans (the
	// persistent evaluator stores per-target-leaf traversal decisions and
	// revalidates them against these fields instead of re-traversing).
	//
	// SrcDrift is how far the node moved *as a source cluster* in the last
	// geometry refresh: |ΔCenter| + |ΔRadius|. TgtDrift is the same for the
	// node's role as a target sphere: |ΔCentroid| + |ΔBRadius|. Both are
	// per-refresh deltas (not cumulative); a cached decision consumes them
	// once per Update. Shape is the tree's update sequence number at the
	// moment the node's child list last changed structurally (0 for nodes
	// never restructured, including all freshly built ones — Update
	// sequence numbers start at 1).
	SrcDrift float64
	TgtDrift float64
	Shape    int64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Count returns the number of particles in the node.
func (n *Node) Count() int { return n.End - n.Start }

// Size returns the edge length of the (cubic) box.
func (n *Node) Size() float64 { return n.Box.Size().X }

// Tree is an octree over a particle set. Particles are stored permuted into
// tree order (contiguous per node); Perm maps tree order back to the
// original index: Pos[i] == original[Perm[i]].
type Tree struct {
	Root    *Node
	Pos     []vec.V3  // positions in tree order
	Q       []float64 // charges in tree order
	Perm    []int     // tree order -> original index
	LeafCap int
	Height  int // deepest level
	NNodes  int
	NLeaves int

	levels [][]*Node // nodes grouped by level, Start-ascending within each

	// seq counts Update passes (first Update is 1). Nodes whose child list
	// is mutated during an Update are stamped with the current value in
	// Node.Shape, so plan caches can detect structural change with one
	// integer compare.
	seq int64

	// Compaction scratch of Update's relocation pass, kept across refits
	// so steady timestepping reuses the storage.
	scratchPos  []vec.V3
	scratchQ    []float64
	scratchPerm []int
	migrantMark []bool
}

// Config controls tree construction.
type Config struct {
	// LeafCap is the maximum number of particles per leaf. The paper notes
	// leaves of 32-64 particles are used in practice for cache performance;
	// smaller values give deeper trees. Default 8.
	LeafCap int
	// Workers is the number of goroutines building subtrees; 0 means
	// GOMAXPROCS. The built tree — decomposition, permutation, and every cluster statistic — is
	// bitwise identical at any worker count.
	Workers int
}

func (c *Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// moments accumulates the charge moments of one particle scan: net and
// absolute charge, the |q|-weighted position sum (expansion center
// numerator) and the unweighted position sum (centroid numerator).
type moments struct {
	q, absQ float64
	wc, gc  vec.V3
}

// add folds one particle in. The operation order matches the historical
// serial summarize loop so leaf statistics keep their exact bits.
func (m *moments) add(p vec.V3, q float64) {
	a := q
	m.q += q
	if a < 0 {
		a = -a
	}
	m.absQ += a
	m.wc = m.wc.Add(p.Scale(a))
	m.gc = m.gc.Add(p)
}

// merge folds a child scan into a parent accumulator (fixed child order
// keeps the bits schedule-invariant).
func (m *moments) merge(c moments) {
	m.q += c.q
	m.absQ += c.absQ
	m.wc = m.wc.Add(c.wc)
	m.gc = m.gc.Add(c.gc)
}

// applyMoments derives the node's charge statistics and centers from an
// accumulated scan of its range.
func applyMoments(n *Node, m *moments) {
	n.Charge = m.q
	n.AbsCharge = m.absQ
	if m.absQ > 0 {
		n.Center = m.wc.Scale(1 / m.absQ)
	} else {
		// Zero net absolute charge (massless cluster): geometric center.
		n.Center = n.Box.Center()
	}
	if cnt := n.Count(); cnt > 0 {
		n.Centroid = m.gc.Scale(1 / float64(cnt))
	} else {
		n.Centroid = n.Box.Center()
	}
}

// Build constructs the octree for the particle set.
func Build(set *points.Set, cfg Config) (*Tree, error) {
	if set == nil || set.N() == 0 {
		return nil, fmt.Errorf("tree: empty particle set")
	}
	if cfg.LeafCap <= 0 {
		cfg.LeafCap = 8
	}
	n := set.N()
	t := &Tree{
		Pos:     make([]vec.V3, n),
		Q:       make([]float64, n),
		Perm:    make([]int, n),
		LeafCap: cfg.LeafCap,
	}
	for i, p := range set.Particles {
		t.Pos[i] = p.Pos
		t.Q[i] = p.Charge
		t.Perm[i] = i
	}
	bound := geom.Bound(t.Pos)
	rootBox := bound.Cube().Inflate(1 + 1e-9)
	// The relative inflation can round away entirely when the cloud is tiny
	// compared to the magnitude of its coordinates (a 1e-9-wide clump near
	// 0.5: Cube's recentering may exclude an extreme point by one ulp while
	// the inflation is far below that ulp). Union with the exact bound
	// restores guaranteed containment; the box stays a cube up to that ulp.
	rootBox = rootBox.Union(bound)
	if rootBox.MaxDim() == 0 {
		// All particles coincide; inflate so octant math works.
		c := rootBox.Center()
		d := vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
		rootBox = geom.AABB{Lo: c.Sub(d), Hi: c.Add(d)}
	}
	// The root is the only node without a parent scan to inherit moments
	// from: one extra pass over all particles.
	var rm moments
	for i := range t.Pos {
		rm.add(t.Pos[i], t.Q[i])
	}
	root := &Node{Box: rootBox, Start: 0, End: n}
	applyMoments(root, &rm)
	b := builder{t: t}
	b.run(root, cfg.workers())
	t.Root = root
	t.NNodes, t.NLeaves, t.Height = b.nnodes, b.nleaves, b.height
	t.initLevels()
	return t, nil
}

// builder accumulates the node census of one construction task. Parallel
// builds run one builder per subtree task and merge; the merged totals are
// independent of how the work was split.
type builder struct {
	t       *Tree
	nnodes  int
	nleaves int
	height  int
}

func (b *builder) countNode(level int) {
	b.nnodes++
	if level > b.height {
		b.height = level
	}
}

func (b *builder) mergeFrom(o *builder) {
	b.nnodes += o.nnodes
	b.nleaves += o.nleaves
	if o.height > b.height {
		b.height = o.height
	}
}

// splittable reports whether the node must be partitioned further.
func (b *builder) splittable(n *Node) bool {
	return n.Count() > b.t.LeafCap && n.Level < MaxDepth
}

// run builds the subtree under root. With more than one worker the top of
// the tree is partitioned serially until at least ~8 tasks per worker
// exist, then the pending subtrees build independently on the pool: their
// particle ranges are disjoint (the in-place octant bucket sort partitions
// [Start, End) exactly), so tasks share no mutable state.
func (b *builder) run(root *Node, workers int) {
	if workers <= 1 {
		b.grow(root)
		return
	}
	target := 8 * workers
	queue := []*Node{root}
	for len(queue) > 0 && len(queue) < target {
		n := queue[0]
		queue = queue[1:]
		if !b.splittable(n) {
			b.finishLeaf(n)
			continue
		}
		b.countNode(n.Level)
		n.Children = b.t.partitionFused(n)
		queue = append(queue, n.Children...)
	}
	tasks := queue
	subs := make([]builder, len(tasks))
	sched.Run(len(tasks), workers, func(_ int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			subs[i] = builder{t: b.t}
			subs[i].grow(tasks[i])
		}
	})
	for i := range subs {
		b.mergeFrom(&subs[i])
	}
}

// grow recursively builds the subtree at n (whose moments are already
// applied by the parent's scan).
func (b *builder) grow(n *Node) {
	if !b.splittable(n) {
		b.finishLeaf(n)
		return
	}
	b.countNode(n.Level)
	n.Children = b.t.partitionFused(n)
	for _, c := range n.Children {
		b.grow(c)
	}
}

// finishLeaf closes out a node that stays a leaf: only the radius maxima
// remain to compute (its charge statistics came from the parent's scan).
func (b *builder) finishLeaf(n *Node) {
	b.countNode(n.Level)
	b.nleaves++
	b.t.radiiScan(n)
}

// partitionFused performs the single fused scan of an internal node's
// range — octant counts, per-octant charge moments, and the node's own
// radius maxima (its Center/Centroid are already known from the parent's
// scan) — then permutes the range into octant order in place and returns
// the children with their statistics applied. Each child therefore never
// rescans its range for sums; only its radii (which need its own Center
// first) cost it a scan, fused into ITS partition scan or leaf
// finalization.
func (t *Tree) partitionFused(n *Node) []*Node {
	box := n.Box
	var counts [8]int
	var om [8]moments
	var r2, b2 float64
	for i := n.Start; i < n.End; i++ {
		p := t.Pos[i]
		o := box.OctantIndex(p)
		counts[o]++
		om[o].add(p, t.Q[i])
		if d := p.Dist2(n.Center); d > r2 {
			r2 = d
		}
		if d := p.Dist2(n.Centroid); d > b2 {
			b2 = d
		}
	}
	n.Radius = math.Sqrt(r2)
	n.BRadius = math.Sqrt(b2)
	var starts, next [8]int
	acc := n.Start
	for o := 0; o < 8; o++ {
		starts[o] = acc
		next[o] = acc
		acc += counts[o]
	}
	// Cycle-following permutation into octant order.
	for o := 0; o < 8; o++ {
		for i := next[o]; i < starts[o]+counts[o]; {
			dst := box.OctantIndex(t.Pos[i])
			if dst == o {
				i++
				next[o] = i
				continue
			}
			j := next[dst]
			t.Pos[i], t.Pos[j] = t.Pos[j], t.Pos[i]
			t.Q[i], t.Q[j] = t.Q[j], t.Q[i]
			t.Perm[i], t.Perm[j] = t.Perm[j], t.Perm[i]
			next[dst] = j + 1
		}
	}
	children := make([]*Node, 0, 8)
	for o := 0; o < 8; o++ {
		if counts[o] == 0 {
			continue
		}
		c := &Node{Box: box.Octant(o), Level: n.Level + 1, Start: starts[o], End: starts[o] + counts[o]}
		applyMoments(c, &om[o])
		children = append(children, c)
	}
	return children
}

// radiiScan computes the node's two radius maxima against its (already
// known) expansion center and centroid.
func (t *Tree) radiiScan(n *Node) {
	var r2, b2 float64
	for i := n.Start; i < n.End; i++ {
		if d := t.Pos[i].Dist2(n.Center); d > r2 {
			r2 = d
		}
		if d := t.Pos[i].Dist2(n.Centroid); d > b2 {
			b2 = d
		}
	}
	n.Radius = math.Sqrt(r2)
	n.BRadius = math.Sqrt(b2)
}

// scanMoments accumulates the charge moments of range [lo, hi) in tree
// order — the leaf-side statistic source for passes without a parent
// partition scan (refit, recharge).
func (t *Tree) scanMoments(lo, hi int) moments {
	var m moments
	for i := lo; i < hi; i++ {
		m.add(t.Pos[i], t.Q[i])
	}
	return m
}

// Seq returns the update sequence number: how many Update passes have run
// on this tree. Node.Shape values equal to Seq() mark nodes restructured by
// the most recent pass.
func (t *Tree) Seq() int64 { return t.seq }

// Walk visits every node in pre-order.
func (t *Tree) Walk(f func(*Node)) { walk(t.Root, f) }

func walk(n *Node, f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		walk(c, f)
	}
}

// WalkPost visits every node in post-order (children before parents), the
// order needed by the upward multipole pass.
func (t *Tree) WalkPost(f func(*Node)) { walkPost(t.Root, f) }

func walkPost(n *Node, f func(*Node)) {
	for _, c := range n.Children {
		walkPost(c, f)
	}
	f(n)
}

// Leaves returns all leaf nodes in tree order.
func (t *Tree) Leaves() []*Node {
	out := make([]*Node, 0, t.NLeaves)
	t.Walk(func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
	})
	return out
}

// LevelsWithNodes returns, per level, the number of nodes at that level.
func (t *Tree) LevelsWithNodes() []int {
	counts := make([]int, t.Height+1)
	t.Walk(func(n *Node) { counts[n.Level]++ })
	return counts
}

// LeafStatsQuantile returns the q-quantile (0 = min, 1 = max) of the
// absolute charges of the deepest-level leaves, along with that level's box
// size. Theorem 3 uses the minimum ("the smallest net charge cluster at
// lowest level"), the most conservative reference: every heavier cluster is
// promoted to a higher degree. Larger quantiles trade accuracy for fewer
// terms by letting clusters up to the quantile keep the minimum degree.
// ok is false when no leaf carries charge.
func (t *Tree) LeafStatsQuantile(q float64) (absCharge, size float64, ok bool) {
	var charges []float64
	t.Walk(func(n *Node) {
		if n.IsLeaf() && n.Level == t.Height && n.AbsCharge > 0 {
			charges = append(charges, n.AbsCharge)
			size = n.Size()
		}
	})
	if len(charges) == 0 {
		// Fall back to any nonempty leaf (degenerate trees).
		return t.MinLeafStats()
	}
	sort.Float64s(charges)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	i := int(q * float64(len(charges)-1))
	return charges[i], size, true
}

// MinLeafStats returns the smallest absolute charge and the matching radius
// among the deepest-level clusters — the reference cluster of Theorem 3
// ("the smallest net charge cluster at lowest level"). Zero-charge leaves
// are skipped; if every leaf has zero charge, ok is false.
func (t *Tree) MinLeafStats() (absCharge, size float64, ok bool) {
	absCharge = -1
	t.Walk(func(n *Node) {
		if !n.IsLeaf() || n.AbsCharge <= 0 {
			return
		}
		tie := n.AbsCharge == absCharge && n.Size() < size //lint:ignore floatcmp exact equality is the deterministic tie-break; a tolerance would make the choice traversal-order dependent
		if absCharge < 0 || n.AbsCharge < absCharge || tie {
			absCharge = n.AbsCharge
			size = n.Size()
		}
	})
	if absCharge < 0 {
		return 0, 0, false
	}
	return absCharge, size, true
}
