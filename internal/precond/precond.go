// Package precond provides the preconditioners used with GMRES on the
// boundary-element systems: point Jacobi and block Jacobi over spatial
// vertex clusters. First-kind single-layer systems on open sheets (the
// propeller blades) are ill-conditioned; near-field block preconditioning
// — the approach of the authors' companion work on hierarchical solvers
// for boundary element methods — cuts GMRES(10) on them from about 170
// products to about 30. On a closed surface such as the sphere, plain
// GMRES(10) already converges in under ten products and the block
// preconditioner costs more than it saves. GMRES applies it on the left,
// so its tolerance is then measured in the preconditioned norm
// ||M^{-1}(b - Ax)|| / ||M^{-1}b||.
package precond

import (
	"fmt"

	"treecode/internal/linalg"
)

// Jacobi is diagonal scaling: z_i = r_i / d_i.
type Jacobi struct {
	inv []float64
}

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
func NewJacobi(diag []float64) (*Jacobi, error) {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("precond: zero diagonal entry %d", i)
		}
		inv[i] = 1 / d
	}
	return &Jacobi{inv: inv}, nil
}

// Apply implements the krylov.Operator contract (z = M^{-1} r).
func (j *Jacobi) Apply(dst, src []float64) {
	for i, v := range src {
		dst[i] = v * j.inv[i]
	}
}

// BlockJacobi inverts dense diagonal blocks over disjoint index clusters.
type BlockJacobi struct {
	blocks  [][]int
	factors []*linalg.LU
	n       int
	scratch []float64 // one block's right-hand side, sized to the largest block
}

// NewBlockJacobi factors the given dense blocks. blocks[k] lists the global
// indices of block k (disjoint, covering 0..n-1); mats[k] is the |blocks[k]|
// square sub-matrix A[blocks[k]][blocks[k]].
func NewBlockJacobi(n int, blocks [][]int, mats []*linalg.Dense) (*BlockJacobi, error) {
	if len(blocks) != len(mats) {
		return nil, fmt.Errorf("precond: %d blocks but %d matrices", len(blocks), len(mats))
	}
	covered := make([]bool, n)
	b := &BlockJacobi{blocks: blocks, n: n}
	for k, idx := range blocks {
		if mats[k].N != len(idx) {
			return nil, fmt.Errorf("precond: block %d has %d indices but a %d matrix", k, len(idx), mats[k].N)
		}
		for _, i := range idx {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("precond: block %d index %d out of range", k, i)
			}
			if covered[i] {
				return nil, fmt.Errorf("precond: index %d in two blocks", i)
			}
			covered[i] = true
		}
		f, err := mats[k].Factor()
		if err != nil {
			return nil, fmt.Errorf("precond: block %d singular: %w", k, err)
		}
		b.factors = append(b.factors, f)
		if len(idx) > len(b.scratch) {
			b.scratch = make([]float64, len(idx))
		}
	}
	for i, c := range covered {
		if !c {
			return nil, fmt.Errorf("precond: index %d not covered by any block", i)
		}
	}
	return b, nil
}

// Apply implements the krylov.Operator contract (z = M^{-1} r). Each block
// is gathered into one shared scratch vector and solved in place, so Apply
// allocates nothing; a BlockJacobi must therefore not be applied from two
// goroutines at once.
func (b *BlockJacobi) Apply(dst, src []float64) {
	for k, idx := range b.blocks {
		local := b.scratch[:len(idx)]
		for j, i := range idx {
			local[j] = src[i]
		}
		b.factors[k].SolveInPlace(local)
		for j, i := range idx {
			dst[i] = local[j]
		}
	}
}
