package obs

import "math"

// LevelMetrics aggregates the interactions recorded against tree nodes of
// one level.
type LevelMetrics struct {
	Accepts  int64   `json:"accepts"`   // MAC acceptances (M2P interactions)
	Rejects  int64   `json:"rejects"`   // MAC rejections (node was opened or summed directly)
	M2PTerms int64   `json:"m2p_terms"` // multipole terms evaluated: sum (p+1)^2
	PPPairs  int64   `json:"pp_pairs"`  // direct particle pairs summed at leaves of this level
	Budget   float64 `json:"budget"`    // Theorem 2 predicted error budget: sum A alpha^{p+1}/(r(1-alpha))
}

func (l *LevelMetrics) add(o *LevelMetrics) {
	l.Accepts += o.Accepts
	l.Rejects += o.Rejects
	l.M2PTerms += o.M2PTerms
	l.PPPairs += o.PPPairs
	l.Budget += o.Budget
}

// RatioStats tracks min/mean/max of a stream of values (the opening ratio
// a/r of accepted interactions).
type RatioStats struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	Sum float64 `json:"-"`
	N   int64   `json:"n"`
}

func (r *RatioStats) add(v float64) {
	if r.N == 0 || v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
	r.Sum += v
	r.N++
}

func (r *RatioStats) merge(o *RatioStats) {
	if o.N == 0 {
		return
	}
	if r.N == 0 || o.Min < r.Min {
		r.Min = o.Min
	}
	if o.Max > r.Max {
		r.Max = o.Max
	}
	r.Sum += o.Sum
	r.N += o.N
}

// Mean returns the running mean, or NaN when nothing was recorded.
func (r *RatioStats) Mean() float64 {
	if r.N == 0 {
		return math.NaN()
	}
	return r.Sum / float64(r.N)
}

// BatchMetrics counts what the leaf-batched (dual-tree) evaluation mode
// did beyond the per-interaction census: how much traversal the shared
// per-leaf lists amortized, how often the conservative sphere MAC had to
// fall back to per-particle refinement, and how many scheduler steals
// rebalanced the leaf tasks.
type BatchMetrics struct {
	LeafTasks     int64 `json:"leaf_tasks"`     // target leaves processed
	SharedEntries int64 `json:"shared_entries"` // clusters on shared far-field lists
	SharedServed  int64 `json:"shared_served"`  // particle-interactions served from shared lists
	RefineChecks  int64 `json:"refine_checks"`  // per-particle MAC tests in the refinement band
	RefineAccepts int64 `json:"refine_accepts"` // refinement-band tests that accepted
	Steals        int64 `json:"steals"`         // work-stealing scheduler steal events
}

func (b *BatchMetrics) add(o *BatchMetrics) {
	b.LeafTasks += o.LeafTasks
	b.SharedEntries += o.SharedEntries
	b.SharedServed += o.SharedServed
	b.RefineChecks += o.RefineChecks
	b.RefineAccepts += o.RefineAccepts
	b.Steals += o.Steals
}

// PlanMetrics counts what the persistent interaction-plan cache did: how
// target-leaf plan acquisitions resolved (served intact, repaired, built
// from scratch), how many cached entries were reused versus re-derived by
// traversal, what the revalidation passes checked and invalidated, how
// often the whole store was dropped, and how much traversal (collect) time
// the build/repair paths actually spent.
type PlanMetrics struct {
	LeafHits       int64 `json:"leaf_hits"`       // plans served intact, no traversal
	LeafRepairs    int64 `json:"leaf_repairs"`    // plans repaired (invalid spans re-collected)
	LeafBuilds     int64 `json:"leaf_builds"`     // plans built from scratch
	EntriesReused  int64 `json:"entries_reused"`  // cached entries served without re-derivation
	EntriesRebuilt int64 `json:"entries_rebuilt"` // entries produced by collect (build or repair)
	Checked        int64 `json:"checked"`         // entries examined by revalidation passes
	Invalidated    int64 `json:"invalidated"`     // entries revalidation marked for repair
	Drops          int64 `json:"drops"`           // whole-store drops (full rebuilds)
	CollectNS      int64 `json:"collect_ns"`      // traversal time spent building/repairing plans
}

func (p *PlanMetrics) add(o *PlanMetrics) {
	p.LeafHits += o.LeafHits
	p.LeafRepairs += o.LeafRepairs
	p.LeafBuilds += o.LeafBuilds
	p.EntriesReused += o.EntriesReused
	p.EntriesRebuilt += o.EntriesRebuilt
	p.Checked += o.Checked
	p.Invalidated += o.Invalidated
	p.Drops += o.Drops
	p.CollectNS += o.CollectNS
}

// ReuseFrac returns the fraction of plan entries served from cache,
// reused/(reused+rebuilt), or 0 when no batched evaluation ran.
func (p *PlanMetrics) ReuseFrac() float64 {
	tot := p.EntriesReused + p.EntriesRebuilt
	if tot == 0 {
		return 0
	}
	return float64(p.EntriesReused) / float64(tot)
}

// BlockMetrics counts the hierarchical block-timestep scheme's work: how
// many active-subset substeps ran, how many per-particle force evaluations
// they paid, rung promotions (toward shorter timesteps) and demotions
// (toward longer ones), and the accumulated mixed-age staleness measure.
// Occupancy is the particles-per-rung histogram as of the latest recorded
// step — a gauge, replaced rather than summed on merge.
type BlockMetrics struct {
	Substeps   int64   `json:"substeps"`
	ForceEvals int64   `json:"force_evals"`
	Promotions int64   `json:"promotions"`
	Demotions  int64   `json:"demotions"`
	Staleness  float64 `json:"staleness"`
	Occupancy  []int64 `json:"occupancy,omitempty"`
}

func (b *BlockMetrics) add(o *BlockMetrics) {
	b.Substeps += o.Substeps
	b.ForceEvals += o.ForceEvals
	b.Promotions += o.Promotions
	b.Demotions += o.Demotions
	b.Staleness += o.Staleness
	if len(o.Occupancy) > 0 {
		b.Occupancy = append(b.Occupancy[:0], o.Occupancy...)
	}
}

// RefitMetrics counts what the persistent-engine maintenance passes
// (Evaluator.Update) saw and did: how many updates ran, which path each
// took (in-place refit vs drift-policy fallback to a full rebuild), and
// the drift they observed.
type RefitMetrics struct {
	Updates  int64 `json:"updates"`  // Evaluator.Update calls
	Refits   int64 `json:"refits"`   // updates that maintained the tree in place
	Rebuilds int64 `json:"rebuilds"` // updates that fell back to a full rebuild
	Migrants int64 `json:"migrants"` // particles that left their leaf's box
	Splits   int64 `json:"splits"`   // leaves created by re-bucketing
	Merges   int64 `json:"merges"`   // leaves removed by re-bucketing
	// RadiusInflationMax is the largest conservative-radius inflation
	// ratio any refresh observed (combine over farthest-corner cap;
	// above 1 means nodes pinned at the cap).
	RadiusInflationMax float64 `json:"radius_inflation_max"`
}

func (r *RefitMetrics) add(o *RefitMetrics) {
	r.Updates += o.Updates
	r.Refits += o.Refits
	r.Rebuilds += o.Rebuilds
	r.Migrants += o.Migrants
	r.Splits += o.Splits
	r.Merges += o.Merges
	if o.RadiusInflationMax > r.RadiusInflationMax {
		r.RadiusInflationMax = o.RadiusInflationMax
	}
}

// Metrics is the merged interaction census of a run. Levels is indexed by
// tree level and DegreeHist by multipole degree; both grow on demand.
type Metrics struct {
	Levels       []LevelMetrics // per tree level
	DegreeHist   []int64        // accepted interactions per degree
	OpenRatio    RatioStats     // a/r over accepted interactions
	DegreeClamps int64          // degree selections clamped at the stability cap
	Batch        BatchMetrics   // leaf-batched evaluation counters (zero for walk-only runs)
	Refit        RefitMetrics   // persistent-engine maintenance counters
	Plan         PlanMetrics    // interaction-plan cache counters (zero for walk-only runs)
	Block        BlockMetrics   // block-timestep counters (zero for global dt)
}

// Accepts returns the total MAC acceptances across levels.
func (m *Metrics) Accepts() int64 {
	var t int64
	for i := range m.Levels {
		t += m.Levels[i].Accepts
	}
	return t
}

// Rejects returns the total MAC rejections across levels.
func (m *Metrics) Rejects() int64 {
	var t int64
	for i := range m.Levels {
		t += m.Levels[i].Rejects
	}
	return t
}

// M2PTerms returns the total multipole terms across levels.
func (m *Metrics) M2PTerms() int64 {
	var t int64
	for i := range m.Levels {
		t += m.Levels[i].M2PTerms
	}
	return t
}

// PPPairs returns the total direct pairs across levels.
func (m *Metrics) PPPairs() int64 {
	var t int64
	for i := range m.Levels {
		t += m.Levels[i].PPPairs
	}
	return t
}

// BudgetTotal returns the summed Theorem 2 predicted budget.
func (m *Metrics) BudgetTotal() float64 {
	var t float64
	for i := range m.Levels {
		t += m.Levels[i].Budget
	}
	return t
}

func (m *Metrics) level(l int) *LevelMetrics {
	if l >= len(m.Levels) {
		grown := make([]LevelMetrics, l+1)
		copy(grown, m.Levels)
		m.Levels = grown
	}
	return &m.Levels[l]
}

func (m *Metrics) degree(p int) *int64 {
	if p >= len(m.DegreeHist) {
		grown := make([]int64, p+1)
		copy(grown, m.DegreeHist)
		m.DegreeHist = grown
	}
	return &m.DegreeHist[p]
}

func (m *Metrics) mergeFrom(o *Metrics) {
	for l := range o.Levels {
		m.level(l).add(&o.Levels[l])
	}
	for p, c := range o.DegreeHist {
		if c != 0 {
			*m.degree(p) += c
		}
	}
	m.OpenRatio.merge(&o.OpenRatio)
	m.DegreeClamps += o.DegreeClamps
	m.Batch.add(&o.Batch)
	m.Refit.add(&o.Refit)
	m.Plan.add(&o.Plan)
	m.Block.add(&o.Block)
}

func (m *Metrics) clone() Metrics {
	out := *m
	out.Levels = append([]LevelMetrics(nil), m.Levels...)
	out.DegreeHist = append([]int64(nil), m.DegreeHist...)
	out.Block.Occupancy = append([]int64(nil), m.Block.Occupancy...)
	return out
}

// Shard is one worker's private metric accumulator. Recording methods use
// plain counters — no locks, no atomics — so the hot path never contends;
// the worker folds the shard into the collector once with Merge when it
// finishes. A nil *Shard (from a nil collector) ignores all calls, but the
// evaluators still guard recording with a single outer nil check so the
// argument computation (distances, bounds) is skipped too.
type Shard struct {
	c *Collector
	m Metrics
}

// NewShard hands out a private accumulator for one worker. Nil-safe: a nil
// collector returns a nil shard.
func (c *Collector) NewShard() *Shard {
	if c == nil {
		return nil
	}
	return &Shard{c: c}
}

// Accept records one accepted (M2P) cluster interaction: the cluster's
// tree level, the evaluation degree, the series terms it evaluates, the
// opening ratio a/r, and the Theorem 2 predicted bound.
func (s *Shard) Accept(level, degree int, terms int64, openRatio, budget float64) {
	if s == nil {
		return
	}
	lm := s.m.level(level)
	lm.Accepts++
	lm.M2PTerms += terms
	lm.Budget += budget
	*s.m.degree(degree)++
	s.m.OpenRatio.add(openRatio)
}

// Reject records one MAC rejection at the given tree level.
func (s *Shard) Reject(level int) {
	if s == nil {
		return
	}
	s.m.level(level).Rejects++
}

// RejectN records n MAC rejections at the given tree level at once — the
// leaf-batched evaluator's bulk form: when the conservative sphere test
// proves every particle of a target leaf rejects a cluster, all n
// per-particle rejections are recorded in one call, keeping the census
// identical to the per-particle walk's.
func (s *Shard) RejectN(level int, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.m.level(level).Rejects += n
}

// BatchLeaf records one processed target leaf: entries clusters on its
// shared far-field list serving served particle-interactions without any
// per-particle MAC test.
func (s *Shard) BatchLeaf(entries, served int64) {
	if s == nil {
		return
	}
	s.m.Batch.LeafTasks++
	s.m.Batch.SharedEntries += entries
	s.m.Batch.SharedServed += served
}

// Refine records per-particle MAC tests in the conservative-MAC refinement
// band (clusters neither provably accepted nor provably rejected for the
// whole leaf) and how many of them accepted.
func (s *Shard) Refine(checks, accepts int64) {
	if s == nil {
		return
	}
	s.m.Batch.RefineChecks += checks
	s.m.Batch.RefineAccepts += accepts
}

// PlanHit records one target-leaf plan served intact from the cache, with
// all cached entries reused as-is.
func (s *Shard) PlanHit(entries int64) {
	if s == nil {
		return
	}
	s.m.Plan.LeafHits++
	s.m.Plan.EntriesReused += entries
}

// PlanBuild records one target-leaf plan built from scratch: entries
// entries produced by ns nanoseconds of traversal.
func (s *Shard) PlanBuild(entries, ns int64) {
	if s == nil {
		return
	}
	s.m.Plan.LeafBuilds++
	s.m.Plan.EntriesRebuilt += entries
	s.m.Plan.CollectNS += ns
}

// PlanRepair records one target-leaf plan repair: reused entries copied
// from the cached plan, rebuilt entries re-derived by ns nanoseconds of
// traversal over the invalidated spans.
func (s *Shard) PlanRepair(reused, rebuilt, ns int64) {
	if s == nil {
		return
	}
	s.m.Plan.LeafRepairs++
	s.m.Plan.EntriesReused += reused
	s.m.Plan.EntriesRebuilt += rebuilt
	s.m.Plan.CollectNS += ns
}

// Direct records pairs direct particle-particle interactions against a
// leaf at the given tree level.
func (s *Shard) Direct(level int, pairs int64) {
	if s == nil || pairs == 0 {
		return
	}
	s.m.level(level).PPPairs += pairs
}

// Merge folds the shard into its collector and resets it for reuse.
// Nil-safe.
func (s *Shard) Merge() {
	if s == nil {
		return
	}
	s.c.mu.Lock()
	s.c.metrics.mergeFrom(&s.m)
	s.c.mu.Unlock()
	s.m = Metrics{}
}
