package engine

import (
	"math"

	"treecode/internal/harmonics"
	"treecode/internal/multipole"
	"treecode/internal/tree"
)

// p2mWeight prices one P2M coefficient of one particle (a Regular harmonic
// from the recurrence plus a complex multiply-add) in units of one M2M
// inner-loop iteration. Measured on a 2-core Xeon VM with go1.24 at
// p = 4..15: P2M 16-19 ns per coefficient per particle, M2M 5.2-8.7 ns per
// iteration.
const p2mWeight = 3

// costPass is the upward cost pass. Every node needs an expansion at its
// own degree or above, built one of two ways: direct P2M over its range
// [Start, End), or M2M from children that are all stored at least as high
// (M2M is exact only then). With cost(n, d) the cheapest way to build n's
// subtree with n stored at degree d >= n.Degree, and best(c, d) the
// minimum of cost(c, ·) over degrees >= d,
//
//	P2M: cost = p2mWeight·count·Len(d) + sum_c best(c, 0)
//	M2M: cost = children·Len(d)^2      + sum_c best(c, d)
//
// (Len(d)^2 is the iteration count of AccumulateTranslatedBuf's loop). A
// bottom-up pass fills each node's row of costs and cheaper-path flags
// for d <= maxP, summing the children's best rows on the way; a top-down
// pass then stores the root at its cheapest degree and every child at its
// cheapest degree at or above what its parent's path requires (the
// parent's degree under M2M, nothing under P2M). Ties go to the lower
// degree and to P2M, which has the exact radius. The decisions read only
// particle counts and degrees, so they — and the expansions — are the same
// at any worker count.
//
// The buffers are kept across runs, so re-selecting degrees on a refit
// allocates only when the tree grew.
type costPass struct {
	w      int     // row length: degrees 0..maxP
	next   int     // pre-order position of the next node visited
	cost   []int64 // per node, by stored degree: cheapest subtree cost
	direct []bool  // per node, by stored degree: P2M is the cheaper build
	kids   []int64 // per tree level: the children's summed best rows
	terms  int64   // upward terms of the chosen builds
}

// run plans the upward pass of t, setting every node's UpDegree and
// UpDirect, and returns the upward term count of the plan.
func (c *costPass) run(t *tree.Tree, maxP int) int64 {
	c.w = maxP + 1
	if nc := t.NNodes * c.w; cap(c.cost) < nc {
		c.cost, c.direct = make([]int64, nc), make([]bool, nc)
	}
	if nk := (t.Height + 2) * c.w; cap(c.kids) < nk {
		c.kids = make([]int64, nk)
	}
	// Rows are indexed by pre-order position, numbered alike in both
	// passes; the root's row of kids is a sink nobody reads.
	c.next = 0
	c.up(t.Root, c.kids[:c.w])
	c.next, c.terms = 0, 0
	c.down(t.Root, 0)
	return c.terms
}

// row returns the cost and flag rows of the node at pre-order position i.
func (c *costPass) row(i int) ([]int64, []bool) {
	return c.cost[i*c.w : (i+1)*c.w], c.direct[i*c.w : (i+1)*c.w]
}

// up fills n's row and adds best(n, ·) into its parent's sum.
func (c *costPass) up(n *tree.Node, sum []int64) {
	row, dir := c.row(c.next)
	c.next++
	cnt := int64(n.Count())
	if n.IsLeaf() {
		for d := n.Degree; d < c.w; d++ {
			row[d], dir[d] = p2mWeight*cnt*int64(harmonics.Len(d)), true
		}
	} else {
		kids := c.kids[(n.Level+1)*c.w : (n.Level+2)*c.w]
		for d := range kids {
			kids[d] = 0
		}
		for _, ch := range n.Children {
			c.up(ch, kids)
		}
		nk := int64(len(n.Children))
		for d := n.Degree; d < c.w; d++ {
			l := int64(harmonics.Len(d))
			p2m := p2mWeight*cnt*l + kids[0]
			m2m := nk*l*l + kids[d]
			row[d], dir[d] = min(p2m, m2m), p2m <= m2m
		}
	}
	b := int64(math.MaxInt64)
	for d := c.w - 1; d >= 0; d-- {
		if d >= n.Degree && row[d] < b {
			b = row[d]
		}
		sum[d] += b
	}
}

// down stores n at its cheapest degree >= max(lo, n.Degree) and passes
// its children the degree its build path requires of them.
func (c *costPass) down(n *tree.Node, lo int) {
	row, dir := c.row(c.next)
	c.next++
	d := max(lo, n.Degree)
	for k := d + 1; k < c.w; k++ {
		if row[k] < row[d] {
			d = k
		}
	}
	n.UpDegree, n.UpDirect = d, dir[d]
	if n.UpDirect {
		c.terms += int64(n.Count()) * multipole.Terms(d)
		d = 0
	} else {
		c.terms += multipole.Terms(d)
	}
	for _, ch := range n.Children {
		c.down(ch, d)
	}
}
