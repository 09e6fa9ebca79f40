package fmm

import (
	"sync"
	"time"

	"treecode/internal/multipole"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// PotentialsAt evaluates the potential at arbitrary target points (no
// self-exclusion) with a target-side tree: well-separated (target cluster,
// source cluster) pairs interact through M2L into target-tree locals, the
// rest through direct sums. The local degree of each target cluster adapts
// to the largest source degree it receives, so the adaptive method's
// accuracy carries over to off-particle evaluation.
func (e *Evaluator) PotentialsAt(targets []vec.V3) ([]float64, *Stats, error) {
	st := &Stats{TreeHeight: e.Tree.Height, TreeNodes: e.Tree.NNodes, BuildTime: e.BuildTime()}
	if len(targets) == 0 {
		return nil, st, nil
	}
	// Geometry-only target tree (unit weights).
	tset := &points.Set{Particles: make([]points.Particle, len(targets))}
	for i, x := range targets {
		tset.Particles[i] = points.Particle{Pos: x, Charge: 1}
	}
	tt, err := tree.Build(tset, tree.Config{LeafCap: e.Cfg.LeafCap})
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()

	m2l := make(map[*tree.Node][]*tree.Node)
	p2p := make(map[*tree.Node][]*tree.Node)
	var trav func(a, b *tree.Node)
	trav = func(a, b *tree.Node) {
		d := a.Center.Dist(b.Center)
		if d > 0 && a.Radius+b.Radius <= e.Cfg.Alpha*d {
			m2l[a] = append(m2l[a], b)
			st.M2L++
			st.M2LTerms += multipole.Terms(b.Degree)
			return
		}
		aLeaf, bLeaf := a.IsLeaf(), b.IsLeaf()
		switch {
		case aLeaf && bLeaf:
			p2p[a] = append(p2p[a], b)
			st.P2P += int64(a.Count()) * int64(b.Count())
		case bLeaf || (!aLeaf && a.Radius >= b.Radius):
			for _, c := range a.Children {
				trav(c, b)
			}
		default:
			for _, c := range b.Children {
				trav(a, c)
			}
		}
	}
	trav(tt.Root, e.Tree.Root)

	// M2L into target locals (degree = max source degree, floor Cfg.Degree).
	locals := make(map[*tree.Node]*multipole.Local, len(m2l))
	tgtNodes := make([]*tree.Node, 0, len(m2l))
	tt.Walk(func(n *tree.Node) {
		if len(m2l[n]) > 0 {
			tgtNodes = append(tgtNodes, n)
		}
	})
	var localsMu sync.Mutex
	e.parallelOver(len(tgtNodes), func(i int) {
		a := tgtNodes[i]
		p := e.Cfg.Degree
		for _, b := range m2l[a] {
			if b.Degree > p {
				p = b.Degree
			}
		}
		la := multipole.NewLocal(a.Center, p)
		for _, b := range m2l[a] {
			la.Add(b.Mp.M2L(a.Center, p))
		}
		localsMu.Lock()
		locals[a] = la
		localsMu.Unlock()
	})

	out := make([]float64, len(targets)) // target tree order
	// Near field.
	tLeaves := make([]*tree.Node, 0, len(p2p))
	tt.Walk(func(n *tree.Node) {
		if len(p2p[n]) > 0 {
			tLeaves = append(tLeaves, n)
		}
	})
	src := e.Tree
	e.parallelOver(len(tLeaves), func(li int) {
		a := tLeaves[li]
		for i := a.Start; i < a.End; i++ {
			x := tt.Pos[i]
			var phi float64
			for _, b := range p2p[a] {
				for j := b.Start; j < b.End; j++ {
					r := x.Dist(src.Pos[j])
					if r == 0 {
						continue
					}
					phi += src.Q[j] / r
				}
			}
			out[i] += phi
		}
	})

	// Downward on the target tree. Inherited locals may have a different
	// degree than the child's own; Translate handles the resize.
	var down func(n *tree.Node, inherited *multipole.Local)
	down = func(n *tree.Node, inherited *multipole.Local) {
		l := locals[n]
		if inherited != nil {
			deg := e.Cfg.Degree
			if l != nil && l.Degree > deg {
				deg = l.Degree
			}
			if inherited.Degree > deg {
				deg = inherited.Degree
			}
			shifted := inherited.Translate(n.Center, deg)
			if l != nil {
				shifted.Add(l)
			}
			l = shifted
		}
		if n.IsLeaf() {
			if l != nil {
				for i := n.Start; i < n.End; i++ {
					out[i] += l.Evaluate(tt.Pos[i])
				}
			}
			return
		}
		for _, c := range n.Children {
			down(c, l)
		}
	}
	down(tt.Root, nil)

	st.EvalTime = time.Since(start)
	res := make([]float64, len(targets))
	for i, orig := range tt.Perm {
		res[orig] = out[i]
	}
	return res, st, nil
}
