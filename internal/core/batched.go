package core

// Leaf-batched dual-tree evaluation: the one traversal behind Potentials,
// Fields and FieldsFor.
//
// The per-particle walk traverses the octree once per target; with leaves of
// c particles each, neighbouring targets repeat almost identical traversals
// c times. The leaf pass traverses once per *target leaf* instead, testing
// the MAC conservatively against the leaf's geometric bounding sphere
// (Centroid, BRadius):
//
//   - AcceptSphere (extent <= alpha*(r - rho)): every point of the sphere
//     satisfies the per-particle criterion, so the cluster joins a shared
//     far-field (M2P) list consumed by all particles of the leaf without
//     further tests.
//   - RejectSphere (extent > alpha*(r + rho)): every point fails the
//     criterion, so the walk would open the node for each particle; an
//     internal node descends, a source leaf joins the shared near-field
//     (P2P) list.
//   - Otherwise the cluster is in the refinement band between the two
//     bounds: each particle applies the exact per-particle MAC, descending
//     where it rejects — precisely what the walk does.
//
// Because the sphere tests are conservative in both directions, the
// per-particle interaction set is *identical* to the walk's: the leaf pass
// never accepts an interaction the per-particle criterion would reject
// (Theorem 2's error budget is untouched) and never opens a node the walk
// would accept (no extra work, only amortized traversal). The two differ
// solely in summation order. The walk itself stays as PotentialsAt's path
// (arbitrary targets have no leaf), as the band's descent, and, in the
// tests, as the oracle the leaf pass is checked against.
//
// The traversal's outcome — the classified decision list per target leaf —
// persists on the evaluator between calls as an interaction *plan*
// (plan.go) and is revalidated, not re-derived, across Evaluator.Update:
// the steady-state force call pays no traversal at all. Collect runs on an
// explicit per-worker stack (deep refined trees cannot overflow goroutine
// stacks, and the hot path pays no call overhead), classifies from
// mac.MAC.SphereSlacks — whose signs reproduce the boolean sphere tests
// exactly — and emits the flat DFS plan the cached evaluation replays in
// the fresh traversal's order bitwise.
//
// Leaf tasks are wildly uneven for clustered distributions, so they are
// balanced by the work-stealing scheduler in internal/sched. Results are
// independent of the schedule bitwise: each particle's contributions are
// summed in the deterministic per-leaf list order, whichever worker runs
// the leaf.

import (
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// planFrame is one explicit-stack slot of collect: a node still to
// classify, or — when n is nil — a close marker patching the span of the
// open entry at index patch once its subtree segment is complete.
type planFrame struct {
	n     *tree.Node
	patch int32
}

// collect classifies the subtree at root against the target leaf's bounding
// sphere, appending the flat DFS-ordered plan to dst. Classification reads
// the signed sphere-test margins (SphereSlacks) so each entry carries the
// slack revalidation consumes later; the slack signs reproduce the
// AcceptSphere/RejectSphere booleans exactly, so the emitted decisions are
// the recursive traversal's bit for bit. The walk runs on the worker's
// explicit stack — reused across leaves, grown once — with nil-node close
// markers patching each open entry's span when its segment completes.
// Collect is pure classification; census accounting (bulk rejections,
// batch-leaf tallies) happens in the evaluation passes so cached and fresh
// plans record identical censuses.
//
//treecode:hot
func (w *worker) collect(dst []planEntry, root *tree.Node, c vec.V3, rho float64) []planEntry {
	m := w.e.Cfg.MAC
	w.stack = append(w.stack[:0], planFrame{n: root})
	for len(w.stack) > 0 {
		f := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if f.n == nil {
			dst[f.patch].span = int32(len(dst)) - f.patch
			continue
		}
		n := f.n
		acc, rej := m.SphereSlacks(c, rho, n)
		switch {
		case acc >= 0: // == AcceptSphere
			dst = append(dst, planEntry{node: n, slack: acc, span: 1, kind: planM2P})
		case rej <= 0: // == !RejectSphere: refinement band
			slack := -rej
			if s := -acc; s < slack {
				slack = s
			}
			dst = append(dst, planEntry{node: n, slack: slack, span: 1, kind: planBand})
		case n.IsLeaf():
			dst = append(dst, planEntry{node: n, slack: rej, span: 1, kind: planP2P})
		default:
			dst = append(dst, planEntry{node: n, slack: rej, span: 1, kind: planOpen})
			w.stack = append(w.stack, planFrame{patch: int32(len(dst)) - 1})
			for i := len(n.Children) - 1; i >= 0; i-- {
				w.stack = append(w.stack, planFrame{n: n.Children[i]})
			}
		}
	}
	return dst
}

// leafPass evaluates every particle of the target leaf at index li,
// acquiring (hitting, repairing or building) the leaf's cached plan first,
// and adds the potentials into phi and, for a field worker, the fields into
// field. The kind-filtered passes — M2P, then the refinement band, then
// P2P — visit entries in plan (DFS) order, so the summation order is the
// fresh traversal's exactly. Far-field clusters run in a cluster-outer loop
// so each expansion's coefficients stay hot across the leaf's particles;
// near-field leaves batch P2P over contiguous tree-order slices.
//
//treecode:hot
func (w *worker) leafPass(li int, phi []float64, field []vec.V3) {
	pl := &w.e.plans[li]
	leaf := pl.leaf
	entries := w.acquire(pl)
	t := w.e.Tree
	w.census(entries, w.activeCount(leaf))
	w.refChecks = 0
	w.refAccepts = 0
	for _, pass := range [...]planKind{planM2P, planBand, planP2P} {
		for k := range entries {
			if entries[k].kind != pass {
				continue
			}
			n := entries[k].node
			for i := leaf.Start; i < leaf.End; i++ {
				o := t.Perm[i]
				if w.active != nil && !w.active[o] {
					continue
				}
				var p float64
				var f vec.V3
				switch pass {
				case planM2P:
					p, f = w.accept(n, t.Pos[i])
				case planBand:
					p, f = w.refine(n, t.Pos[i], i)
				default:
					p, f = w.direct(n, t.Pos[i], i)
				}
				phi[o] += p
				if w.field {
					field[o] = field[o].Add(f)
				}
			}
		}
	}
	if w.shard != nil {
		w.shard.Refine(w.refChecks, w.refAccepts)
	}
}

// activeCount returns how many of the leaf's particles the current
// evaluation targets — the whole leaf outside FieldsFor.
func (w *worker) activeCount(leaf *tree.Node) int64 {
	if w.active == nil {
		return int64(leaf.Count())
	}
	t := w.e.Tree
	var c int64
	for i := leaf.Start; i < leaf.End; i++ {
		if w.active[t.Perm[i]] {
			c++
		}
	}
	return c
}

// census records the per-leaf traversal census from the plan: one bulk
// rejection of the evaluated (active) particle count at every opened node
// and every directly-summed source leaf (matching the walk, which rejects
// once per particle there), and the shared-list batch tallies. Recorded
// per evaluation — not per collect — so a cached plan yields the same
// census a fresh traversal would.
func (w *worker) census(entries []planEntry, count int64) {
	if w.shard == nil {
		return
	}
	var m2p int64
	for k := range entries {
		switch entries[k].kind {
		case planM2P:
			m2p++
		case planP2P, planOpen:
			w.shard.RejectN(entries[k].node.Level, count)
		}
	}
	w.shard.BatchLeaf(m2p, m2p*count)
}

// refine applies the exact per-particle criterion to a refinement-band
// cluster — the walk's own accept/reject step, plus the band tallies.
//
//treecode:hot
func (w *worker) refine(n *tree.Node, x vec.V3, self int) (float64, vec.V3) {
	w.refChecks++
	if w.e.Cfg.MAC.Accept(x, n) {
		w.refAccepts++
		return w.accept(n, x)
	}
	if w.shard != nil {
		w.shard.Reject(n.Level)
	}
	return w.walkBelow(n, x, self)
}
