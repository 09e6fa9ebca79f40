// Package krylov implements the restarted GMRES iteration used by the
// paper's boundary-element experiments: the dense system arising from
// collocation is solved by GMRES with a restart of 10, with each
// matrix-vector product computed approximately by the treecode.
package krylov

import (
	"fmt"
	"math"

	"treecode/internal/linalg"
)

// Operator is anything that can apply a square matrix: dst = A*src.
// dst and src never alias.
type Operator interface {
	Apply(dst, src []float64)
}

// OperatorFunc adapts a function to the Operator interface.
type OperatorFunc func(dst, src []float64)

// Apply implements Operator.
func (f OperatorFunc) Apply(dst, src []float64) { f(dst, src) }

// Options configures GMRES.
type Options struct {
	// Restart is the Krylov subspace dimension m of GMRES(m). The paper
	// uses 10. Default 10.
	Restart int
	// MaxIters caps the total number of matrix-vector products. Default
	// 10 * Restart.
	MaxIters int
	// Tol is the relative residual target ||b - Ax|| / ||b||. Default 1e-8.
	Tol float64
	// Precond, if non-nil, left-preconditions the iteration: GMRES runs on
	// M^{-1} A x = M^{-1} b with Precond applying M^{-1}. Residuals (and
	// Tol) are then measured in the preconditioned norm.
	Precond Operator
}

func (o *Options) fill() {
	if o.Restart <= 0 {
		o.Restart = 10
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 10 * o.Restart
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
}

// Result reports the outcome of a GMRES solve.
type Result struct {
	Iterations int       // matrix-vector products performed
	Residual   float64   // final relative residual estimate
	Converged  bool      // Residual <= Tol
	History    []float64 // relative residual after each iteration
}

// GMRES solves A x = b with restarted GMRES. x holds the initial guess on
// entry and the solution on return.
func GMRES(A Operator, b, x []float64, opt Options) (*Result, error) {
	opt.fill()
	n := len(b)
	if len(x) != n {
		return nil, fmt.Errorf("krylov: x has length %d, b has %d", len(x), n)
	}
	// With left preconditioning, iterate on M^{-1} A x = M^{-1} b.
	apply := A.Apply
	if opt.Precond != nil {
		tmp := make([]float64, n)
		inner := A.Apply
		prec := opt.Precond.Apply
		apply = func(dst, src []float64) {
			inner(tmp, src)
			prec(dst, tmp)
		}
		pb := make([]float64, n)
		prec(pb, b)
		b = pb
	}
	normB := linalg.Norm2(b)
	if normB == 0 {
		// Solution of A x = 0 with our convention: x = 0.
		for i := range x {
			x[i] = 0
		}
		return &Result{Converged: true}, nil
	}

	m := opt.Restart
	res := &Result{}
	// Workspaces.
	v := make([][]float64, m+1) // Arnoldi basis
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, m+1) // Hessenberg (h[i][j], i row, j col)
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m) // Givens cosines
	sn := make([]float64, m) // Givens sines
	g := make([]float64, m+1)
	w := make([]float64, n)
	r := make([]float64, n)

	for res.Iterations < opt.MaxIters {
		// r = b - A x
		apply(r, x)
		res.Iterations++
		for i := range r {
			r[i] = b[i] - r[i]
		}
		beta := linalg.Norm2(r)
		rel := beta / normB
		res.Residual = rel
		res.History = append(res.History, rel)
		if rel <= opt.Tol {
			res.Converged = true
			return res, nil
		}
		inv := 1 / beta
		for i := range r {
			v[0][i] = r[i] * inv
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		// Arnoldi with modified Gram-Schmidt + Givens rotations.
		var j int
		for j = 0; j < m && res.Iterations < opt.MaxIters; j++ {
			apply(w, v[j])
			res.Iterations++
			for i := 0; i <= j; i++ {
				h[i][j] = linalg.Dot(w, v[i])
				linalg.Axpy(-h[i][j], v[i], w)
			}
			// The rotation below zeroes h[j+1][j]; keep it for the
			// breakdown test.
			sub := linalg.Norm2(w)
			h[j+1][j] = sub
			if sub > 1e-300 {
				inv := 1 / sub
				for i := range w {
					v[j+1][i] = w[i] * inv
				}
			}
			// Apply previous rotations to the new column.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i][j] + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = t
			}
			// New rotation annihilating h[j+1][j].
			cs[j], sn[j] = givens(h[j][j], h[j+1][j])
			h[j][j] = cs[j]*h[j][j] + sn[j]*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]

			rel := math.Abs(g[j+1]) / normB
			res.Residual = rel
			res.History = append(res.History, rel)
			// sub == 0 is a happy breakdown: the Krylov space is
			// invariant and the cycle's solution is exact.
			if rel <= opt.Tol || sub <= 1e-300 {
				j++
				break
			}
		}
		// Solve the triangular system and update x.
		y := make([]float64, j)
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= h[i][k] * y[k]
			}
			if h[i][i] == 0 {
				return nil, fmt.Errorf("krylov: breakdown, zero diagonal in Hessenberg")
			}
			y[i] = s / h[i][i]
		}
		for i := 0; i < j; i++ {
			linalg.Axpy(y[i], v[i], x)
		}
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

// givens returns (c, s) with c*a + s*b = r >= 0 and -s*a + c*b = 0.
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		if a >= 0 {
			return 1, 0
		}
		return -1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		if b < 0 {
			s = -s
		}
		return s * t, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+t*t)
	if a < 0 {
		c = -c
	}
	return c, c * t
}
