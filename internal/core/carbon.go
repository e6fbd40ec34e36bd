// Package core implements CARBON, the paper's hybrid competitive
// co-evolutionary algorithm for bi-level optimization (§IV, Fig 3).
//
// Two populations evolve against each other:
//
//   - the *prey*: upper-level pricing decisions (continuous vectors),
//     evolved with the GA operators of Table II (binary tournament, SBX,
//     polynomial mutation);
//   - the *predators*: greedy lower-level heuristics encoded as GP
//     syntax trees over the Table I primitive set, evolved with GP
//     operators (tournament, one-point subtree crossover, uniform
//     mutation, reproduction).
//
// The competitive coupling: each generation the predators are scored by
// their mean %-gap to LP optimality (Eq. 1) across a fresh sample of the
// *current prey population's* induced instances — predators chase
// whatever lower-level instances the prey currently create. Each prey is
// then scored by the leader revenue it obtains under the most accurate
// predator's forecast of the rational reaction. Because the gap is
// relative to each induced instance's own bound, predator quality is
// comparable across arbitrary upper-level decisions, which is what lets
// the two populations evolve independently — the paper's answer to the
// epistasis that breaks naive two-population co-evolution.
//
// Determinism: a run is reproducible bit-for-bit for a fixed
// Config.Seed, at any Config.Workers. Every generation's LP relaxations
// are solved once per distinct prey genotype (the shared-relaxation
// cache, DESIGN.md §5e), each starting from the final LP basis of the
// prey's nearer parent, so each is a pure function of (genotype, start
// basis) whichever worker solves it. Snapshots carry the start bases,
// so a restored run continues exactly.
package core

import (
	"errors"
	"fmt"

	"carbon/internal/archive"
	"carbon/internal/ga"
	"carbon/internal/gp"
	"carbon/internal/rng"
	"carbon/internal/span"
	"carbon/internal/stats"
	"carbon/internal/telemetry"
)

// Config carries the Table II parameters for CARBON plus the
// implementation knobs the paper leaves open (documented in DESIGN.md).
type Config struct {
	Seed uint64

	// Upper level (prey): Table II left column.
	ULPopSize       int     // population size (100)
	ULArchiveSize   int     // archive size (100)
	ULEvalBudget    int     // UL fitness evaluations (50000)
	ULCrossoverProb float64 // SBX probability (0.85)
	ULMutationProb  float64 // polynomial mutation, per gene (0.01)
	ULSBXEta        float64 // SBX distribution index
	ULPolyEta       float64 // polynomial-mutation distribution index

	// Lower level (predators).
	LLPopSize       int     // population size (100)
	LLArchiveSize   int     // archive size (100)
	LLEvalBudget    int     // LL fitness evaluations (50000)
	LLCrossoverProb float64 // GP one-point crossover (0.85)
	LLMutationProb  float64 // GP uniform mutation (0.10)
	LLReproProb     float64 // GP reproduction (0.05)
	LLTournamentK   int     // GP tournament size ("Tournament": k=3)

	// GP shape control.
	InitDepthMin int // ramped half-and-half minimum depth
	InitDepthMax int // ramped half-and-half maximum depth
	MutGrowDepth int // grow depth of uniform-mutation subtrees
	Limits       gp.Limits

	// PreySample is how many prey decisions each predator is scored
	// against per generation (fresh sample each generation).
	PreySample int

	// Elites is the number of best individuals copied unchanged into
	// the next generation of each population.
	Elites int

	// Workers bounds evaluation parallelism (0 = GOMAXPROCS).
	Workers int

	// --- Ablation hooks (DESIGN.md §7). Defaults reproduce the paper. ---

	// CostFitness switches predator fitness from the %-gap (Eq. 1) to
	// the raw follower cost — the COBRA-style objective the paper argues
	// is incomparable across induced instances. Exists to measure that
	// argument.
	CostFitness bool

	// PrimitiveSet overrides the GP primitive set (nil = the paper's
	// Table I). The terminal layout must match covering.TableITerms.
	// Used by the terminal-ablation benchmark (e.g. dropping the LP
	// terminals d and x̄).
	PrimitiveSet *gp.Set

	// NoElimination disables the greedy's redundancy-removal pass.
	NoElimination bool

	// ULVariation selects the upper-level variation suite: "" or "sbx"
	// for Table II's SBX + polynomial mutation, "de" for DE/best/1/bin
	// trials with weight deF and crossover rate deCR (DE-based bi-level
	// solvers appear in the paper's related work; the ablation benchmark
	// compares the suites).
	ULVariation string

	// LLPointMutProb additionally applies a shape-preserving point
	// mutation to each bred predator with this probability (0 = off,
	// the paper's configuration).
	LLPointMutProb float64

	// --- Telemetry (all optional; zero-cost and determinism-neutral
	// when unset — same seed, same result, with or without them). ---

	// Observer receives per-generation snapshots, migration events and
	// the final result (nil = off). With islands it is called from
	// several goroutines and must be safe for concurrent use.
	Observer Observer

	// Metrics, when non-nil, registers hot-path counters, timers and
	// histograms (evaluator costs, worker occupancy, breeding time)
	// into the registry. Shared registries aggregate across engines.
	Metrics *telemetry.Registry

	// RunLabel tags this run's trace events (GenStats.Label) so
	// interleaved multi-run traces can be demultiplexed.
	RunLabel string

	// Spans, when non-nil, emits latency-attribution spans: one "gen"
	// span per Step with "relax"/"pred_eval"/"prey_eval"/"breed"
	// children and sampled "lp.solve" grandchildren inside the
	// relaxation wave. Span identity comes from the tracer's private
	// stream, never the run RNG, so — like Observer and Metrics — a run
	// is bit-identical with spans on or off.
	Spans *span.Tracer

	// SpanParent parents every generation span into an existing trace
	// (a served job's attempt span, say). The zero context makes each
	// generation span the root of its own trace.
	SpanParent span.Context

	// --- Fault injection (testing/chaos only; nil in production). ---

	// LPFault, when non-nil, is installed on every worker evaluator's
	// warm LP solver and consulted before each relaxation solve; a
	// non-nil return fails that solve. The engine quarantines the
	// affected prey for the generation instead of failing the run (see
	// Engine.Faults).
	LPFault func() error

	// EvalFault, like LPFault, but consulted at the start of every
	// cached paired evaluation — it models heuristic-side failures. A
	// strike quarantines the predator (or prey) being evaluated.
	EvalFault func() error
}

// DefaultConfig returns the paper's Table II parameter column for CARBON.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		ULPopSize:       100,
		ULArchiveSize:   100,
		ULEvalBudget:    50000,
		ULCrossoverProb: 0.85,
		ULMutationProb:  0.01,
		ULSBXEta:        15,
		ULPolyEta:       20,
		LLPopSize:       100,
		LLArchiveSize:   100,
		LLEvalBudget:    50000,
		LLCrossoverProb: 0.85,
		LLMutationProb:  0.10,
		LLReproProb:     0.05,
		LLTournamentK:   3,
		InitDepthMin:    1,
		InitDepthMax:    4,
		MutGrowDepth:    3,
		Limits:          gp.DefaultLimits(),
		PreySample:      4,
		Elites:          1,
	}
}

// EffectiveSample returns the number of prey decisions each predator is
// actually scored against per generation: PreySample clamped to the
// prey population size (a sample of distinct prey indices cannot exceed
// ULPopSize). CanStep, Step and Result all use this one clamp so the
// budget pre-check charges exactly what evaluation spends — charging
// the raw PreySample made runs with PreySample > ULPopSize stop early
// with lower-level budget to spare.
func (c *Config) EffectiveSample() int {
	if c.PreySample < c.ULPopSize {
		return c.PreySample
	}
	return c.ULPopSize
}

// Validate rejects unusable configurations. The elite bound
// (0 ≤ Elites < min(ULPopSize, LLPopSize)) is load-bearing beyond
// breeding: InjectPrey/InjectPredator place island migrants at
// population slot Elites, so an accepted configuration can never index
// past either population during migration.
func (c *Config) Validate() error {
	switch {
	case c.ULPopSize < 2 || c.LLPopSize < 2:
		return errors.New("core: population sizes must be at least 2")
	case c.ULArchiveSize < 1 || c.LLArchiveSize < 1:
		return errors.New("core: archive sizes must be positive")
	case c.ULEvalBudget < c.ULPopSize || c.LLEvalBudget < c.LLPopSize:
		return errors.New("core: budgets must cover at least one generation")
	case c.LLCrossoverProb+c.LLMutationProb+c.LLReproProb > 1+1e-9:
		return errors.New("core: GP operator probabilities exceed 1")
	case c.PreySample < 1:
		return errors.New("core: PreySample must be at least 1")
	case c.Elites < 0 || c.Elites >= c.ULPopSize || c.Elites >= c.LLPopSize:
		return errors.New("core: bad elite count")
	case c.InitDepthMin < 0 || c.InitDepthMax < c.InitDepthMin:
		return errors.New("core: bad ramped depth range")
	case c.ULVariation != "" && c.ULVariation != "sbx" && c.ULVariation != "de":
		return fmt.Errorf("core: unknown ULVariation %q", c.ULVariation)
	case c.LLPointMutProb < 0 || c.LLPointMutProb > 1:
		return errors.New("core: LLPointMutProb outside [0,1]")
	}
	return nil
}

// BestPair is the reported solution: the best archived pricing and the
// best archived heuristic.
type BestPair struct {
	Price      []float64
	Revenue    float64 // F under the best forecast at archive time
	Tree       gp.Tree
	TreeStr    string  // raw evolved form
	Simplified string  // algebraically simplified form (gp.Simplify)
	GapPct     float64 // mean %-gap of the best heuristic
}

// Result summarizes one CARBON run.
type Result struct {
	Best      BestPair
	ULEvals   int
	LLEvals   int
	Gens      int
	Faults    int          // evaluations quarantined over the run (0 unless faults were injected or the LP misbehaved)
	Label     string       // Config.RunLabel, tags multi-run outputs
	Island    int          // island index; 0 for single-engine runs
	ULCurve   stats.Series // x: total evals consumed, y: best archived F
	GapCurve  stats.Series // x: total evals consumed, y: best archived mean gap
	ULArchive []archive.Entry[[]float64]
	GPArchive []archive.Entry[gp.Tree]

	// Ancestry is the champion predator's provenance DAG (BFS order,
	// champion first), populated only when the run had an observer
	// attached — lineage tracking rides the same switch as the rest of
	// the introspection layer.
	Ancestry []LineageRecord
}

// breedPrey builds the next prey generation: elitism, then either
// Table II's step (ga.Step) or DE/best/1/bin trials (cfg.ULVariation).
// The second return value is each offspring's provenance (operator +
// parent indices into pop); recording it draws nothing from r.
func breedPrey(r *rng.Rand, pop [][]float64, fit []float64, bounds ga.Bounds, cfg Config) ([][]float64, []origin) {
	better := func(i, j int) bool { return fit[i] > fit[j] }
	if cfg.ULVariation == "de" {
		return breedDE(r, pop, better, bounds, cfg)
	}
	step := ga.Step{Elites: cfg.Elites, CrossProb: cfg.ULCrossoverProb, SBXEta: cfg.ULSBXEta,
		MutProb: cfg.ULMutationProb, PolyEta: cfg.ULPolyEta}
	next, parents := step.Breed(r, pop, better, bounds)
	origins := make([]origin, len(parents))
	for i, p := range parents {
		op := opULMut
		switch {
		case i < cfg.Elites:
			op = opElite
		case p.P2 >= 0:
			op = opSBX
		}
		origins[i] = origin{op: op, p1: p.P1, p2: p.P2}
	}
	return next, origins
}

// deF and deCR are the differential weight and crossover rate of the
// DE ablation's DE/best/1/bin trials.
const (
	deF  = 0.5
	deCR = 0.9
)

// breedDE is the DE ablation's prey step: the elites, then one
// DE/best/1/bin trial per target in population order.
func breedDE(r *rng.Rand, pop [][]float64, better func(i, j int) bool, bounds ga.Bounds, cfg Config) ([][]float64, []origin) {
	next := make([][]float64, 0, len(pop))
	origins := make([]origin, 0, len(pop))
	for _, e := range ga.TopK(len(pop), cfg.Elites, better) {
		next = append(next, append([]float64(nil), pop[e]...))
		origins = append(origins, origin{op: opElite, p1: e, p2: -1})
	}
	bestIdx := ga.TopK(len(pop), 1, better)[0]
	for target := 0; len(next) < len(pop); target++ {
		next = append(next, ga.DEBest1Bin(r, pop, bestIdx, target%len(pop), deF, deCR, bounds))
		origins = append(origins, origin{op: opDE, p1: target % len(pop), p2: bestIdx})
	}
	return next, origins
}

// gpOps maps gp.Step's operators to provenance opcodes.
var gpOps = [...]uint8{gp.Elite: opElite, gp.Crossover: opGPCross, gp.Mutation: opGPMut, gp.Reproduction: opGPRepro}

// breedPredators builds the next predator generation with gp.Step over
// Table II's GP probabilities, then the optional point-mutation pass
// (cfg.LLPointMutProb). Like breedPrey it also returns per-offspring
// provenance, recorded without touching r.
func breedPredators(r *rng.Rand, set *gp.Set, pop []gp.Tree, fit []float64, cfg Config) ([]gp.Tree, []origin) {
	better := func(i, j int) bool { return fit[i] < fit[j] }
	step := gp.Step{Elites: cfg.Elites, CrossProb: cfg.LLCrossoverProb, MutProb: cfg.LLMutationProb,
		TournK: cfg.LLTournamentK, GrowDepth: cfg.MutGrowDepth, Limits: cfg.Limits}
	next, bred := step.Breed(r, set, pop, better)
	origins := make([]origin, len(bred))
	for i, o := range bred {
		origins[i] = origin{op: gpOps[o.Op], p1: o.P1, p2: o.P2}
	}
	if cfg.LLPointMutProb > 0 {
		for i := cfg.Elites; i < len(next); i++ {
			if r.Bool(cfg.LLPointMutProb) {
				next[i] = gp.PointMutate(r, set, next[i])
				origins[i].op = opGPPoint
			}
		}
	}
	return next, origins
}

func priceKey(p []float64) string {
	// Cheap stable key for archive dedup of price vectors.
	b := make([]byte, 0, len(p)*8)
	for _, v := range p {
		u := uint64(v * 1e6)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(u>>s))
		}
	}
	return string(b)
}
