// Command table1 reproduces Table 1 of the paper: for structured (uniform)
// and unstructured (Gaussian, overlapped-Gaussian) distributions of growing
// size, it compares the original fixed-degree Barnes-Hut method with the
// improved adaptive-degree method on simulation error and on the number of
// multipole term evaluations (the paper's serial cost metric).
//
// Particles carry unit charges (uniform charge density, the paper's protein
// scenario), so the total charge grows with n: the original method's
// per-point absolute error grows roughly linearly with n while the improved
// method's grows like log n — the paper's headline result. The relative
// 2-norm error of the paper's error definition is reported alongside.
//
// The error reference is direct summation; above -exactmax particles the
// reference is evaluated at a random sample of -sample targets, which keeps
// the driver laptop-sized while preserving the error growth shape.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/stats"
)

func main() {
	dists := flag.String("dist", "uniform,gaussian,multigauss", "comma-separated distributions")
	sizes := flag.String("sizes", "20000,40000,80000,160000", "comma-separated particle counts")
	degree := flag.Int("degree", 4, "fixed degree / adaptive minimum degree")
	alpha := flag.Float64("alpha", 0.5, "acceptance parameter")
	seed := flag.Int64("seed", 1, "workload seed")
	sample := flag.Int("sample", 2000, "reference sample size for large n")
	exactMax := flag.Int("exactmax", 20000, "largest n for full direct reference")
	refq := flag.Float64("refq", 0, "Theorem 3 reference-cluster quantile (0 = theorem's minimum)")
	obsJSON := flag.String("obsjson", "", "write the obs trace as JSON to FILE (- for stdout)")
	flag.Parse()

	if err := (core.Config{Degree: *degree, Alpha: *alpha, RefQuantile: *refq}).Validate(); err != nil {
		fatal(err)
	}
	if *sample <= 0 {
		fatal(fmt.Errorf("reference sample size must be positive, got %d", *sample))
	}
	var col *obs.Collector // nil keeps the evaluators uninstrumented
	if *obsJSON != "" {
		col = obs.New()
	}

	for _, d := range strings.Split(*dists, ",") {
		dist := points.Distribution(strings.TrimSpace(d))
		fmt.Printf("== Table 1: %s distribution (degree %d, alpha %g, unit charges) ==\n",
			dist, *degree, *alpha)
		tb := stats.NewTable("n", "abserr(orig)", "abserr(new)", "relerr(orig)", "relerr(new)",
			"Terms(orig)", "Terms(new)", "ratio")
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad size %q: %w", s, err))
			}
			r, err := runCase(dist, n, *degree, *alpha, *seed, *sample, *exactMax, *refq, col)
			if err != nil {
				fatal(err)
			}
			tb.AddRow(n, r.absO, r.absA, r.relO, r.relA,
				stats.FormatCount(r.termsO), stats.FormatCount(r.termsA),
				float64(r.termsA)/float64(r.termsO))
		}
		fmt.Println(tb)
	}
	if *obsJSON != "" {
		if err := obs.WriteJSON(col, *obsJSON); err != nil {
			fatal(fmt.Errorf("writing obs trace: %w", err))
		}
	}
}

// fatal reports err on stderr and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "table1:", err)
	os.Exit(1)
}

type result struct {
	absO, absA, relO, relA float64
	termsO, termsA         int64
}

func runCase(dist points.Distribution, n, degree int, alpha float64, seed int64, sample, exactMax int, refq float64, col *obs.Collector) (*result, error) {
	// Unit charge per particle: total charge n (uniform charge density).
	set, err := points.GenerateCharged(dist, n, seed, float64(n), false)
	if err != nil {
		return nil, err
	}
	orig, err := core.New(set, core.Config{Method: core.Original, Degree: degree, Alpha: alpha, Obs: col})
	if err != nil {
		return nil, err
	}
	phiO, stO := orig.Potentials()
	adpt, err := core.New(set, core.Config{Method: core.Adaptive, Degree: degree, Alpha: alpha, RefQuantile: refq, Obs: col})
	if err != nil {
		return nil, err
	}
	phiA, stA := adpt.Potentials()

	r := &result{termsO: stO.Terms, termsA: stA.Terms}
	if n <= exactMax {
		exact := direct.SelfPotentials(set, 0)
		r.relO = stats.RelErr2(phiO, exact)
		r.relA = stats.RelErr2(phiA, exact)
		r.absO = stats.MeanAbsErr(phiO, exact)
		r.absA = stats.MeanAbsErr(phiA, exact)
		return r, nil
	}
	// Sampled reference.
	rng := rand.New(rand.NewSource(seed + 7))
	sample = min(sample, n)
	idx := rng.Perm(n)[:sample]
	var numO, numA, den, sumO, sumA float64
	for _, i := range idx {
		xi := set.Particles[i].Pos
		var exact float64
		for j, pj := range set.Particles {
			if j == i {
				continue
			}
			exact += pj.Charge / xi.Dist(pj.Pos)
		}
		dO := phiO[i] - exact
		dA := phiA[i] - exact
		numO += dO * dO
		numA += dA * dA
		den += exact * exact
		sumO += math.Abs(dO)
		sumA += math.Abs(dA)
	}
	r.relO = math.Sqrt(numO / den)
	r.relA = math.Sqrt(numA / den)
	r.absO = sumO / float64(sample)
	r.absA = sumA / float64(sample)
	return r, nil
}
