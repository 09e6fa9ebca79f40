// Command analyze prints the interaction profile of a treecode run: the
// per-level breakdown of cluster interactions, degrees, term counts, and
// error-bound contributions that the paper's aggregate analysis predicts.
// Comparing -method original with -method adaptive makes the mechanism
// visible: the original concentrates its error bound in the top levels
// (large net charge), the adaptive spends extra terms exactly there to
// flatten the bound across levels.
//
// With -obs the run is instrumented: the per-level MAC census (accepts,
// rejects, opening ratios), the degree histogram, the Theorem 2 predicted
// error budget per level against the realized truncation error, the
// end-to-end error against the direct O(n^2) sum, and the phase-span tree
// are all printed; -obsjson FILE additionally exports the raw trace and
// -obsaddr serves the live snapshot, /metrics, expvar, and pprof.
package main

import (
	"flag"
	"fmt"
	"os"

	"treecode/internal/analyze"
	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/points"
	"treecode/internal/stats"
)

func main() {
	dist := flag.String("dist", "uniform", "distribution")
	n := flag.Int("n", 20000, "particles")
	method := flag.String("method", "adaptive", "original|adaptive")
	degree := flag.Int("degree", 4, "degree / adaptive minimum")
	alpha := flag.Float64("alpha", 0.5, "acceptance parameter")
	stride := flag.Int("stride", 37, "profile every stride-th particle")
	seed := flag.Int64("seed", 1, "seed")
	obsOn := flag.Bool("obs", false, "instrument the run: MAC census, error budget, span tree")
	ob := cliio.ObsFlagVars()
	flag.Parse()

	m := core.Original
	if *method == "adaptive" {
		m = core.Adaptive
	}
	cfg := core.Config{Method: m, Degree: *degree, Alpha: *alpha}
	ob.Force = *obsOn // -obs prints the census even without an export flag
	col, err := ob.Start("treecode.analyze")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg.Obs = col
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	set, err := points.GenerateCharged(points.Distribution(*dist), *n, *seed, float64(*n), false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	e, err := core.New(set, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sum := analyze.Summarize(e)
	fmt.Printf("%s treecode on %s n=%d: height %d, %d nodes (%d leaves), per level %v\n",
		m, *dist, *n, sum.Height, sum.Nodes, sum.Leaves, sum.NodesPer)
	fmt.Printf("root |charge| %.3g, min leaf |charge| %.3g\n\n", sum.ChargeTop, sum.MinLeafA)
	fmt.Println(analyze.Interactions(e, *stride))

	if col == nil {
		return
	}

	// The instrumented full evaluation populates the MAC census and spans;
	// the direct sum gives the realized end-to-end error.
	phi, _ := e.Potentials()
	exact := direct.SelfPotentials(set, 0)
	fmt.Printf("realized error vs direct sum: relative %s, max abs %s\n\n",
		stats.FormatFloat(stats.RelErr2(phi, exact)),
		stats.FormatFloat(stats.MaxAbsErr(phi, exact)))

	mtr := col.Metrics()
	fmt.Printf("MAC census (full evaluation, %d targets): %d accepts, %d rejects, %d direct pairs\n",
		len(phi), mtr.Accepts(), mtr.Rejects(), mtr.PPPairs())
	fmt.Printf("opening ratio a/r over accepts: min %.3g mean %.3g max %.3g\n",
		mtr.OpenRatio.Min, mtr.OpenRatio.Mean(), mtr.OpenRatio.Max)
	if mtr.DegreeClamps > 0 {
		fmt.Printf("degree selections clamped at the Legendre stability cap: %d\n", mtr.DegreeClamps)
	}
	tb := stats.NewTable("level", "accepts", "rejects", "M2P terms", "PP pairs", "Thm2 budget")
	for lvl, lm := range mtr.Levels {
		if lm.Accepts == 0 && lm.Rejects == 0 && lm.PPPairs == 0 {
			continue
		}
		tb.AddRow(lvl, lm.Accepts, lm.Rejects, lm.M2PTerms, lm.PPPairs,
			fmt.Sprintf("%.3e", lm.Budget))
	}
	fmt.Println(tb)

	fmt.Print("degree histogram (accepted interactions): ")
	for p, c := range mtr.DegreeHist {
		if c > 0 {
			fmt.Printf("p%d:%d ", p, c)
		}
	}
	fmt.Print("\n\n")

	fmt.Println(analyze.ErrorBudget(e, *stride))

	fmt.Println("phase spans:")
	fmt.Print(col.RenderSpans())

	if err := ob.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "analyze: writing obs trace: %v\n", err)
		os.Exit(1)
	}
}
