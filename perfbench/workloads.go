package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"treecode/internal/bem"
	"treecode/internal/core"
	"treecode/internal/fmm"
	"treecode/internal/krylov"
	"treecode/internal/mesh"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/sim"
	"treecode/internal/vec"
)

// sizes are the input sizes of the four workloads.
type sizes struct {
	plummerN  int // particles of both Plummer workloads
	bemSubdiv int // icosphere subdivision of bem-sphere
	coldN     int // particles of cold-uniform
}

var (
	fullSizes = sizes{plummerN: 10000, bemSubdiv: 3, coldN: 12000}
	tinySizes = sizes{plummerN: 500, bemSubdiv: 1, coldN: 600}
)

// env is what every workload is generated from.
type env struct {
	seed    int64
	workers int
	size    sizes
}

// Output-check parameters: seeded targets for the direct-summation check
// and the fixed limits a correct program stays far inside.
const (
	checkTargets = 64
	phiLimit     = 1e-3 // relative L2 φ error
	fieldLimit   = 1e-2 // relative L2 E error
	capLimit     = 1e-2 // |total induced charge − 1| on the unit sphere
	bemTol       = 1e-6 // GMRES relative residual target
	bemExactTol  = 1e-3 // residual against the direct-summation operator
)

// instance is one set-up workload, ready to run ops one at a time.
type instance interface {
	// op runs one operation, recording a span around each public call
	// on tr (nil when untraced), and returns its inner timings in seconds
	// by metric name.
	op(tr *tracer) (map[string][]float64, error)
	// counters returns the exact work counters the public API reports
	// for the most recent op. It is called outside the op's span.
	counters() map[string]float64
	// check verifies the outputs of the most recent op against an
	// independent reference and returns the accuracy figures; it errors
	// when one is outside its fixed limit.
	check() (map[string]float64, error)
}

// setupFunc builds one instance; it is the timed set-up of a workload and
// may run several times from the same generated inputs.
type setupFunc func(col *obs.Collector) (instance, error)

type workload struct {
	name string
	// prepare generates the inputs from the seed (untimed) and returns
	// the set-up.
	prepare func(ev env) (setupFunc, error)
}

var workloads = []workload{
	{name: "plummer-step", prepare: plummer(false)},
	{name: "plummer-block", prepare: plummer(true)},
	{name: "bem-sphere", prepare: bemSphere},
	{name: "cold-uniform", prepare: coldUniform},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// treecodeConfig is the adaptive batched treecode both particle workloads
// use: Theorem 3 degrees from a minimum of 4 at α 0.5.
func treecodeConfig(workers int, col *obs.Collector) core.Config {
	return core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5,
		Eval: core.EvalBatched, Workers: workers, Obs: col}
}

// plummer builds the n-body workloads: a Plummer sphere at rest advanced
// by leapfrog with a persistent engine, either at a global dt of 1e-4 or
// with four block-timestep rungs whose finest rung runs at 1e-4.
func plummer(block bool) func(ev env) (setupFunc, error) {
	return func(ev env) (setupFunc, error) {
		set, err := points.Generate(points.Plummer, ev.size.plummerN, ev.seed)
		if err != nil {
			return nil, err
		}
		cfg := sim.Config{Dt: 1e-4, Rebuild: sim.RebuildAuto}
		if block {
			cfg.Block = sim.BlockConfig{MaxRungs: 4, Eta: 1}
			cfg.Dt = 8e-4
		}
		return func(col *obs.Collector) (instance, error) {
			c := cfg
			c.Force = treecodeConfig(ev.workers, col)
			s, err := sim.New(sim.State{Set: set.Clone(), Vel: make([]vec.V3, set.N())}, c)
			if err != nil {
				return nil, err
			}
			// The opening step builds the engine and its plan cache.
			if err := s.Step(); err != nil {
				return nil, err
			}
			return &plummerRun{s: s, seed: ev.seed}, nil
		}, nil
	}
}

type plummerRun struct {
	s    *sim.Simulator
	seed int64
}

func (p *plummerRun) op(tr *tracer) (map[string][]float64, error) {
	sp := tr.begin("sim.Step")
	err := p.s.Step()
	tr.end(sp)
	return nil, err
}

func (p *plummerRun) counters() map[string]float64 {
	// A walk over zero targets returns the engine's stats without
	// evaluating anything: the terms of one upward pass.
	_, st := p.s.Engine().PotentialsAt(nil)
	return map[string]float64{"core.upward_terms": float64(st.UpwardTerms)}
}

// check compares φ and E from the engine, which sits at the current
// positions after a step, with direct summation at seeded targets. The
// masked evaluation returns exactly the entries a full Fields would.
func (p *plummerRun) check() (map[string]float64, error) {
	ps := p.s.State.Set.Particles
	targets := sampleTargets(len(ps), p.seed)
	mask := make([]bool, len(ps))
	for _, i := range targets {
		mask[i] = true
	}
	phi, field, _ := p.s.Engine().FieldsFor(mask)
	var dp, np, df, nf float64
	for _, i := range targets {
		ep, ef := directField(ps, i)
		dp += sq(phi[i] - ep)
		np += sq(ep)
		df += field[i].Sub(ef).Norm2()
		nf += ef.Norm2()
	}
	errs := map[string]float64{"phi_rel_err": relL2(dp, np), "field_rel_err": relL2(df, nf)}
	return errs, limits(errs, map[string]float64{"phi_rel_err": phiLimit, "field_rel_err": fieldLimit})
}

// bemSphere builds the boundary-element workload: the unit icosphere
// with 6 Gauss points per element and an adaptive treecode of minimum
// degree 6 at α 0.4, solved for unit potential by GMRES(10) from zero.
// The mesh is the same at every seed: turning it moves the octree and with
// it the GMRES iteration count, which would make the solve time depend on
// the seed more than on the code.
func bemSphere(ev env) (setupFunc, error) {
	m := mesh.Sphere(ev.size.bemSubdiv, 1, vec.V3{})
	return func(col *obs.Collector) (instance, error) {
		o, err := bem.New(m, 6, &core.Config{Method: core.Adaptive, Degree: 6, Alpha: 0.4,
			Workers: ev.workers, Obs: col})
		if err != nil {
			return nil, err
		}
		return &bemRun{o: o}, nil
	}, nil
}

type bemRun struct {
	o           *bem.Operator
	x           []float64
	res         *krylov.Result
	upwardTerms int64
}

func (b *bemRun) op(tr *tracer) (map[string][]float64, error) {
	n := b.o.N()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, n)
	var iters []float64
	apply := krylov.OperatorFunc(func(dst, src []float64) {
		sp := tr.begin("bem.TreeApply")
		t0 := time.Now()
		st, err := b.o.TreeApply(dst, src)
		iters = append(iters, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			// GMRES has no error path for its operator; the runner
			// recovers this and counts the op as failed.
			panic(err)
		}
		b.upwardTerms = st.UpwardTerms
	})
	sp := tr.begin("krylov.GMRES")
	res, err := krylov.GMRES(apply, rhs, x, krylov.Options{Restart: 10, MaxIters: 500, Tol: bemTol})
	tr.end(sp)
	b.x, b.res = x, res
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("GMRES did not converge: residual %.3g after %d matvecs", res.Residual, res.Iterations)
	}
	return map[string][]float64{"iter_s": iters}, nil
}

func (b *bemRun) counters() map[string]float64 {
	return map[string]float64{
		"krylov.iters":      float64(b.res.Iterations),
		"core.upward_terms": float64(b.upwardTerms),
	}
}

// check requires convergence to the tolerance and compares the total
// induced charge with the analytic capacitance of the unit sphere (1 in
// units where the kernel is 1/r). The residual against the exact
// direct-summation operator is reported beside it.
func (b *bemRun) check() (map[string]float64, error) {
	if b.res == nil || !b.res.Converged || b.res.Residual > bemTol {
		return nil, fmt.Errorf("GMRES not converged to %g", bemTol)
	}
	n := b.o.N()
	ax := make([]float64, n)
	b.o.Apply(ax, b.x)
	var rr float64
	for i := range ax {
		rr += sq(1 - ax[i])
	}
	errs := map[string]float64{
		"cap_err":        math.Abs(b.o.IntegrateDensity(b.x) - 1),
		"exact_residual": relL2(rr, float64(n)), // ||b||² = n
	}
	return errs, limits(errs, map[string]float64{"cap_err": capLimit, "exact_residual": bemExactTol})
}

// coldUniform builds the cold-engine workload: uniform particles in the
// unit cube, evaluated from scratch every op by the adaptive treecode and
// by the FMM at a fixed degree 4 (the adaptive FMM's high-degree M2L takes
// about ten times as long at this size). Its set-up is one untimed warm-up
// op.
func coldUniform(ev env) (setupFunc, error) {
	set, err := points.Generate(points.Uniform, ev.size.coldN, ev.seed)
	if err != nil {
		return nil, err
	}
	return func(col *obs.Collector) (instance, error) {
		c := &coldRun{set: set, workers: ev.workers, col: col, seed: ev.seed}
		if _, err := c.op(nil); err != nil {
			return nil, err
		}
		return c, nil
	}, nil
}

type coldRun struct {
	set     *points.Set
	workers int
	col     *obs.Collector
	seed    int64

	// The last op's engines stay alive, so the live heap after set-up
	// includes one constructed treecode and FMM.
	e           *core.Evaluator
	f           *fmm.Evaluator
	phi, fmmPhi []float64
	st          *core.Stats
	fst         *fmm.Stats
}

func (c *coldRun) op(tr *tracer) (map[string][]float64, error) {
	t0 := time.Now()
	sp := tr.begin("core.New")
	e, err := core.New(c.set, treecodeConfig(c.workers, c.col))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sp = tr.begin("core.Potentials")
	c.phi, c.st = e.Potentials()
	tr.end(sp)
	t2 := time.Now()
	sp = tr.begin("fmm.New")
	f, err := fmm.New(c.set, fmm.Config{Method: core.Original, Degree: 4, Alpha: 0.5,
		Workers: c.workers, Obs: c.col})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("fmm.Potentials")
	c.fmmPhi, c.fst = f.Potentials()
	tr.end(sp)
	t3 := time.Now()
	c.e, c.f = e, f
	return map[string][]float64{
		"construct_s": {t1.Sub(t0).Seconds()},
		"eval_s":      {t2.Sub(t1).Seconds()},
		"fmm_s":       {t3.Sub(t2).Seconds()},
	}, nil
}

func (c *coldRun) counters() map[string]float64 {
	return map[string]float64{
		"core.upward_terms": float64(c.st.UpwardTerms),
		"fmm.m2l":           float64(c.fst.M2L),
		"fmm.m2l_terms":     float64(c.fst.M2LTerms),
		"fmm.p2p":           float64(c.fst.P2P),
		"fmm.up_terms":      float64(c.fst.UpTerms),
	}
}

func (c *coldRun) check() (map[string]float64, error) {
	ps := c.set.Particles
	var d, df, nrm float64
	for _, i := range sampleTargets(len(ps), c.seed) {
		ep, _ := directField(ps, i)
		d += sq(c.phi[i] - ep)
		df += sq(c.fmmPhi[i] - ep)
		nrm += sq(ep)
	}
	errs := map[string]float64{"phi_rel_err": relL2(d, nrm), "fmm_phi_rel_err": relL2(df, nrm)}
	return errs, limits(errs, map[string]float64{"phi_rel_err": phiLimit, "fmm_phi_rel_err": phiLimit})
}

// sampleTargets returns checkTargets distinct particle indices (all of
// them for smaller sets), drawn from the seed.
func sampleTargets(n int, seed int64) []int {
	perm := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
	return perm[:min(n, checkTargets)]
}

// directField sums φ and E = −∇φ at particle i over every other particle
// with the 1/r kernel.
func directField(ps []points.Particle, i int) (float64, vec.V3) {
	x := ps[i].Pos
	var phi float64
	var e vec.V3
	for j := range ps {
		if j == i {
			continue
		}
		d := x.Sub(ps[j].Pos)
		r2 := d.Norm2()
		r := math.Sqrt(r2)
		phi += ps[j].Charge / r
		e = e.Add(d.Scale(ps[j].Charge / (r2 * r)))
	}
	return phi, e
}

func sq(x float64) float64 { return x * x }

// relL2 returns the relative L2 error sqrt(diff2/norm2) from the summed
// squares of the differences and of the reference.
func relL2(diff2, norm2 float64) float64 {
	//lint:ignore mathdomain both arguments are sums of squares
	return math.Sqrt(diff2 / norm2)
}

// limits returns an error naming the first figure above its limit (or
// not a number).
func limits(errs, lim map[string]float64) error {
	for name, l := range lim {
		if v := errs[name]; !(v <= l) {
			return fmt.Errorf("%s = %.3g exceeds the limit %g", name, v, l)
		}
	}
	return nil
}
