// Package mac implements multipole acceptance criteria. A MAC decides
// whether a target point may interact with a cluster through the cluster's
// multipole expansion or must descend into its children.
//
// The paper's alpha-criterion requires the cluster to look small from the
// target: the ratio of cluster extent to distance must not exceed a constant
// alpha < 1, which makes the geometric factor (a/r)^{p+1} of the truncation
// bound at most alpha^{p+1}.
package mac

import (
	"fmt"
	"math"

	"treecode/internal/tree"
	"treecode/internal/vec"
)

// MAC is a multipole acceptance criterion: the per-point test, plus the
// conservative whole-sphere tests that leaf-batched (dual-tree) traversal
// decides for every point of a target bounding sphere at once.
//
// All three criteria in this package have the form
//
//	extent(n) <= alpha * dist(x, ref(n)),
//
// so for a target sphere of center c and radius rho, with r = |c - ref(n)|:
//
//	min dist over the sphere = r - rho  =>  all points accept
//	    when extent <= alpha*(r - rho) and r - rho > 0;
//	max dist over the sphere = r + rho  =>  all points reject
//	    when extent > alpha*(r + rho).
//
// Between the two inequalities lies the refinement band, where the caller
// must fall back to per-point Accept. AcceptSphere must imply Accept for
// every point within rho of c (a dual-tree traversal must never accept an
// interaction the per-point criterion would reject — the Theorem 2 error
// budget depends on it); RejectSphere must likewise imply rejection for
// every such point.
type MAC interface {
	// Accept reports whether the target point x may interact with node n
	// through n's multipole expansion.
	Accept(x vec.V3, n *tree.Node) bool
	// AcceptSphere reports whether every target within distance rho of c
	// accepts node n.
	AcceptSphere(c vec.V3, rho float64, n *tree.Node) bool
	// RejectSphere reports whether every target within distance rho of c
	// rejects node n.
	RejectSphere(c vec.V3, rho float64, n *tree.Node) bool
	// SphereSlacks returns the signed margins of the two sphere tests:
	// accept = alpha*(r-rho) - extent (>= 0 exactly when AcceptSphere
	// holds) and reject = extent - alpha*(r+rho) (> 0 exactly when
	// RejectSphere holds). The sign equivalences are exact in IEEE
	// arithmetic — b-a >= 0 iff a <= b for finite floats — so callers may
	// classify from the slacks and cache the margins for later
	// revalidation: a decision survives geometric drift as long as the
	// total motion of the quantities it read (extent, reference point,
	// target sphere) stays below the stored slack. Both margins stay
	// finite even when the target sphere overlaps the reference point
	// (r <= rho): the finite accept margin is what bounds the distance to
	// a band-to-accept flip, so a cached band decision can be invalidated
	// before drift carries it across the accept boundary. In the one
	// degenerate case where the finite expression is zero but AcceptSphere
	// is false (extent = 0 with the target sphere exactly touching the
	// reference point), the margin is clamped infinitesimally negative —
	// the flip distance genuinely is zero there.
	SphereSlacks(c vec.V3, rho float64, n *tree.Node) (accept, reject float64)
	// String describes the criterion.
	String() string
}

// Alpha is the paper's criterion in its sharp, radius-based form:
// accept when a/r <= alpha, with a the cluster radius about the expansion
// center and r the distance from the target to that center. This is exactly
// the premise of the Theorem 1/2 error bounds.
type Alpha struct {
	Alpha float64
}

// Accept implements MAC.
func (m Alpha) Accept(x vec.V3, n *tree.Node) bool {
	r := x.Dist(n.Center)
	return n.Radius <= m.Alpha*r && r > 0
}

func (m Alpha) String() string { return fmt.Sprintf("alpha=%g (radius)", m.Alpha) }

// AcceptSphere implements MAC: a <= alpha*(r - rho) with r the
// distance from the sphere center to the expansion center.
func (m Alpha) AcceptSphere(c vec.V3, rho float64, n *tree.Node) bool {
	r := c.Dist(n.Center) - rho
	return r > 0 && n.Radius <= m.Alpha*r
}

// RejectSphere implements MAC: a > alpha*(r + rho).
func (m Alpha) RejectSphere(c vec.V3, rho float64, n *tree.Node) bool {
	return n.Radius > m.Alpha*(c.Dist(n.Center)+rho)
}

// SphereSlacks implements MAC with extent a and reference point the
// expansion center; the products mirror AcceptSphere/RejectSphere exactly
// so the slack signs reproduce the booleans bit for bit.
func (m Alpha) SphereSlacks(c vec.V3, rho float64, n *tree.Node) (accept, reject float64) {
	d := c.Dist(n.Center)
	r := d - rho
	accept = acceptSlack(m.Alpha, r, n.Radius)
	reject = n.Radius - m.Alpha*(d+rho)
	return accept, reject
}

// BoxAlpha is the box-dimension form used operationally by Barnes-Hut
// codes: accept when s/r <= alpha with s the box edge length. Since the
// cluster radius satisfies a <= s*sqrt(3)/2, BoxAlpha{alpha} implies
// Alpha{alpha*sqrt(3)/2}.
type BoxAlpha struct {
	Alpha float64
}

// Accept implements MAC.
func (m BoxAlpha) Accept(x vec.V3, n *tree.Node) bool {
	r := x.Dist(n.Center)
	return n.Size() <= m.Alpha*r && r > 0
}

func (m BoxAlpha) String() string { return fmt.Sprintf("alpha=%g (box)", m.Alpha) }

// AcceptSphere implements MAC: s <= alpha*(r - rho).
func (m BoxAlpha) AcceptSphere(c vec.V3, rho float64, n *tree.Node) bool {
	r := c.Dist(n.Center) - rho
	return r > 0 && n.Size() <= m.Alpha*r
}

// RejectSphere implements MAC: s > alpha*(r + rho).
func (m BoxAlpha) RejectSphere(c vec.V3, rho float64, n *tree.Node) bool {
	return n.Size() > m.Alpha*(c.Dist(n.Center)+rho)
}

// SphereSlacks implements MAC with extent s (the box edge, constant
// under refits) and reference point the expansion center.
func (m BoxAlpha) SphereSlacks(c vec.V3, rho float64, n *tree.Node) (accept, reject float64) {
	d := c.Dist(n.Center)
	r := d - rho
	s := n.Size()
	accept = acceptSlack(m.Alpha, r, s)
	reject = s - m.Alpha*(d+rho)
	return accept, reject
}

// MinDist is a conservative variant accepting only if the whole box
// (not just its particles) is far: accept when halfdiag(box)/dist(x, box
// center) <= alpha. Useful as a worst-case baseline in tests.
type MinDist struct {
	Alpha float64
}

// Accept implements MAC.
func (m MinDist) Accept(x vec.V3, n *tree.Node) bool {
	r := x.Dist(n.Box.Center())
	return n.Box.HalfDiagonal() <= m.Alpha*r && r > 0
}

func (m MinDist) String() string { return fmt.Sprintf("alpha=%g (mindist)", m.Alpha) }

// AcceptSphere implements MAC: halfdiag <= alpha*(r - rho) with r the
// distance from the sphere center to the box center.
func (m MinDist) AcceptSphere(c vec.V3, rho float64, n *tree.Node) bool {
	r := c.Dist(n.Box.Center()) - rho
	return r > 0 && n.Box.HalfDiagonal() <= m.Alpha*r
}

// RejectSphere implements MAC: halfdiag > alpha*(r + rho).
func (m MinDist) RejectSphere(c vec.V3, rho float64, n *tree.Node) bool {
	return n.Box.HalfDiagonal() > m.Alpha*(c.Dist(n.Box.Center())+rho)
}

// SphereSlacks implements MAC with extent halfdiag(box) and reference
// point the box center (both constant under refits, so only target-sphere
// drift can erode these slacks).
func (m MinDist) SphereSlacks(c vec.V3, rho float64, n *tree.Node) (accept, reject float64) {
	d := c.Dist(n.Box.Center())
	r := d - rho
	h := n.Box.HalfDiagonal()
	accept = acceptSlack(m.Alpha, r, h)
	reject = h - m.Alpha*(d+rho)
	return accept, reject
}

// acceptSlack is the shared finite accept margin alpha*r - extent, with the
// exact-parity guard for the degenerate zero-extent, zero-distance case:
// AcceptSphere demands r > 0 strictly, so when extent = 0 and r = 0 the
// boolean is false while the expression is zero — and the flip distance is
// genuinely zero, so the margin is clamped to the smallest negative float.
// Everywhere else sign(alpha*r - extent >= 0) equals AcceptSphere: a
// nonnegative margin with extent > 0 forces alpha*r >= extent > 0, hence
// r > 0.
func acceptSlack(alpha, r, extent float64) float64 {
	s := alpha*r - extent
	if s >= 0 && r <= 0 {
		return -math.SmallestNonzeroFloat64
	}
	return s
}
