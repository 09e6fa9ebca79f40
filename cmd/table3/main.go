// Command table3 reproduces Table 3 of the paper: single-iteration errors
// and execution times of the boundary-element matrix-vector product on the
// propeller and gripper surfaces, for the original and improved methods at
// several degrees, with accuracy measured against a degree-9 reference
// (exact direct summation over all Gauss points is far slower, exactly as
// in the paper, and can be enabled with -exact).
//
// The paper's industrial meshes are replaced by parametric synthetic
// surfaces with the same character (all nodes on surfaces, empty volume);
// -density scales them toward the paper's 140k-186k element counts.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"treecode/internal/bem"
	"treecode/internal/core"
	"treecode/internal/krylov"
	"treecode/internal/mesh"
	"treecode/internal/obs"
	"treecode/internal/stats"
)

func main() {
	density := flag.Int("density", 2, "mesh density (10 reproduces the paper's element counts)")
	alpha := flag.Float64("alpha", 0.4, "acceptance parameter")
	quad := flag.Int("quad", 6, "Gauss points per element (paper: 6)")
	refDegree := flag.Int("refdegree", 9, "reference expansion degree (paper: 9)")
	exact := flag.Bool("exact", false, "also compute the exact direct-summation product")
	gmres := flag.Bool("gmres", true, "also run a GMRES(10) solve with the improved method")
	obsJSON := flag.String("obsjson", "", "write the obs trace as JSON to FILE (- for stdout)")
	flag.Parse()

	if err := (core.Config{Degree: *refDegree, Alpha: *alpha}).Validate(); err != nil {
		fatal(err)
	}
	var col *obs.Collector // nil keeps the operators uninstrumented
	if *obsJSON != "" {
		col = obs.New()
	}

	type surf struct {
		name string
		m    *mesh.Mesh
	}
	cases := []surf{
		{"propeller", mesh.Propeller(3, *density)},
		{"gripper", mesh.Gripper(*density)},
	}

	for _, c := range cases {
		fmt.Printf("== Table 3: %s — %d elements, %d nodes, %d Gauss points per element ==\n",
			c.name, c.m.NumTris(), c.m.NumVerts(), *quad)

		// Reference product: degree-9 original method (as in the paper).
		refOp, err := bem.New(c.m, *quad, &core.Config{Method: core.Original, Degree: *refDegree, Alpha: *alpha})
		if err != nil {
			fatal(err)
		}
		n := c.m.NumVerts()
		src := make([]float64, n)
		for i := range src {
			src[i] = 1 + 0.5*math.Sin(float64(i)) // a generic density
		}
		ref := make([]float64, n)
		start := time.Now()
		if _, err := refOp.TreeApply(ref, src); err != nil {
			fatal(err)
		}
		refTime := time.Since(start).Seconds()

		var exactTime float64
		if *exact {
			ex := make([]float64, n)
			start := time.Now()
			refOp.Apply(ex, src)
			exactTime = time.Since(start).Seconds()
			fmt.Printf("exact direct product: %.2fs (error of degree-%d reference vs exact: %s)\n",
				exactTime, *refDegree, stats.FormatFloat(stats.RelErr2(ref, ex)))
			ref = ex
		}

		tb := stats.NewTable("Algorithm", "Degree", "Err", "Time(s)", "Terms")
		for _, method := range []core.Method{core.Original, core.Adaptive} {
			for _, p := range []int{2, 3, 4, 5} {
				op, err := bem.New(c.m, *quad, &core.Config{Method: method, Degree: p, Alpha: *alpha, Obs: col})
				if err != nil {
					fatal(err)
				}
				dst := make([]float64, n)
				start := time.Now()
				st, err := op.TreeApply(dst, src)
				if err != nil {
					fatal(err)
				}
				tb.AddRow(method.String(), p, stats.RelErr2(dst, ref),
					time.Since(start).Seconds(), stats.FormatCount(st.Terms))
			}
		}
		tb.AddRow("reference", *refDegree, 0.0, refTime, "-")
		fmt.Println(tb)

		if *gmres {
			op, err := bem.New(c.m, *quad, &core.Config{Method: core.Adaptive, Degree: 5, Alpha: *alpha})
			if err != nil {
				fatal(err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = 1
			}
			bj, err := op.BlockPreconditioner(48)
			if err != nil {
				fatal(err)
			}
			x := make([]float64, n)
			start := time.Now()
			res, err := krylov.GMRES(krylov.OperatorFunc(op.TreeOperator()), b, x, krylov.Options{
				Restart: 10, MaxIters: 300, Tol: 1e-6, Precond: bj,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("GMRES(10)+block-precond on V*sigma=1: %d products, residual %s, converged=%v, %.2fs\n\n",
				res.Iterations, stats.FormatFloat(res.Residual), res.Converged, time.Since(start).Seconds())
		}
	}
	if *obsJSON != "" {
		if err := obs.WriteJSON(col, *obsJSON); err != nil {
			fatal(fmt.Errorf("writing obs trace: %w", err))
		}
	}
}

// fatal reports err on stderr and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "table3:", err)
	os.Exit(1)
}
