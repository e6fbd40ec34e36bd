package core

import (
	"io"
	"reflect"
	"testing"

	"carbon/internal/bcpop"
	"carbon/internal/rng"
	"carbon/internal/span"
	"carbon/internal/telemetry"
)

// distinctPrey counts the distinct genotypes (exact price bits) in the
// engine's current prey population — the number of LP solves the
// shared-relaxation cache must perform for the next generation.
func distinctPrey(e *Engine) int {
	seen := make(map[string]struct{}, len(e.prey))
	for _, x := range e.prey {
		seen[bcpop.Key(x)] = struct{}{}
	}
	return len(seen)
}

// TestGenerationLPSolveCounts is the cache's accounting contract: a
// generation at LLPopSize=L, sample=S, ULPopSize=U performs exactly
// (distinct prey) LP solves — at most U, and strictly below the issue's
// S+U bound because the prey wave reuses the sampled relaxations.
// Before the cache it was L×S + U.
func TestGenerationLPSolveCounts(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(17)
	cfg.Workers = 2
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}

	L, U := cfg.LLPopSize, cfg.ULPopSize
	S := cfg.EffectiveSample()
	gens := 0
	wantSolves := int64(0)
	for gens < 4 {
		distinct := distinctPrey(e)
		if distinct > U {
			t.Fatalf("distinct prey %d exceeds population %d", distinct, U)
		}
		if !e.Step() {
			t.Fatal(e.Err())
		}
		gens++
		wantSolves += int64(distinct)
	}

	read := func(name string) int64 { return reg.Counter(name).Load() }
	if got := read("bcpop.lp_solves"); got != wantSolves {
		t.Fatalf("lp_solves = %d, want %d (Σ distinct prey per generation)", got, wantSolves)
	}
	if got := read("bcpop.cache_misses"); got != wantSolves {
		t.Fatalf("cache_misses = %d, want %d", got, wantSolves)
	}
	wantEvals := int64(gens) * int64(L*S+U)
	if got := read("bcpop.tree_evals"); got != wantEvals {
		t.Fatalf("tree_evals = %d, want %d (budget accounting is unchanged)", got, wantEvals)
	}
	if got := read("bcpop.cache_hits"); got != wantEvals {
		t.Fatalf("cache_hits = %d, want %d (every evaluation served from the cache)", got, wantEvals)
	}
	// The pre-cache hot path would have solved L×S + U times per
	// generation; the issue's post-cache bound is S + U. Both must
	// dominate the measured count.
	if bound := int64(gens) * int64(S+U); wantSolves > bound {
		t.Fatalf("solves %d exceed the S+U bound %d", wantSolves, bound)
	}
}

// TestDuplicatePreyShareOneSolve: bit-identical genotypes (elitism,
// cloning) must hash to a single LP solve per generation.
func TestDuplicatePreyShareOneSolve(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(23)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Collapse the whole population onto one genotype.
	for i := range e.prey {
		e.prey[i] = append([]float64(nil), e.prey[0]...)
	}
	if !e.Step() {
		t.Fatal(e.Err())
	}
	if got := reg.Counter("bcpop.lp_solves").Load(); got != 1 {
		t.Fatalf("lp_solves = %d, want 1 (all prey share one genotype)", got)
	}
	L, U := cfg.LLPopSize, cfg.ULPopSize
	S := cfg.EffectiveSample()
	if got := reg.Counter("bcpop.cache_hits").Load(); got != int64(L*S+U) {
		t.Fatalf("cache_hits = %d, want %d", got, L*S+U)
	}
	// All predators saw identical samples, all prey identical contexts.
	for i := 1; i < len(e.preyFit); i++ {
		if e.preyFit[i] != e.preyFit[0] {
			t.Fatalf("identical prey got different fitness: %v vs %v", e.preyFit[i], e.preyFit[0])
		}
	}
}

func TestEffectiveSampleClamp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreySample = 4
	if got := cfg.EffectiveSample(); got != 4 {
		t.Fatalf("EffectiveSample = %d, want 4", got)
	}
	cfg.PreySample = cfg.ULPopSize + 50
	if got := cfg.EffectiveSample(); got != cfg.ULPopSize {
		t.Fatalf("EffectiveSample = %d, want %d (clamped)", got, cfg.ULPopSize)
	}
}

// TestPreySampleBudgetClamp is the budget-accounting regression test:
// with PreySample > ULPopSize, CanStep used to charge the unclamped
// product and stop early with lower-level budget to spare. The run must
// spend the full budget at the clamped per-generation cost.
func TestPreySampleBudgetClamp(t *testing.T) {
	mk := smallMarket(t)
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.ULPopSize, cfg.LLPopSize = 4, 4
	cfg.ULArchiveSize, cfg.LLArchiveSize = 4, 4
	cfg.PreySample = 10 // > ULPopSize: effective sample is 4
	cfg.ULEvalBudget = 12
	cfg.LLEvalBudget = 48 // exactly 3 generations at 4×4 LL evals each
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens != 3 {
		t.Fatalf("ran %d generations, want 3 (budget must be spent, not stranded)", res.Gens)
	}
	if res.LLEvals != 48 || res.ULEvals != 12 {
		t.Fatalf("consumed UL=%d LL=%d, want 12 and 48", res.ULEvals, res.LLEvals)
	}
}

// TestResultMidRunDoesNotPerturbRun is the Result/RNG regression test:
// under CostFitness, Result re-measures the best tree's gap on a prey
// sample. Drawing that sample from the live RNG stream perturbed every
// subsequent Step; with the derived RNG, {step k, Result, step to
// completion} must equal an uninterrupted run exactly.
func TestResultMidRunDoesNotPerturbRun(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(21)
	cfg.CostFitness = true

	ref, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2 && e.Step(); k++ {
	}
	mid, err := e.Result() // must be a pure observation
	if err != nil {
		t.Fatal(err)
	}
	mid2, err := e.Result() // and idempotent
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultKey(mid), resultKey(mid2)) {
		t.Fatal("repeated mid-run Result calls disagree")
	}
	for e.Step() {
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultKey(res), resultKey(ref)) {
		t.Fatalf("mid-run Result perturbed the run:\ninterrupted:   %+v\nuninterrupted: %+v",
			resultKey(res), resultKey(ref))
	}
}

// TestInjectAtMaxElites: the degenerate island-migration configuration
// (Elites = PopSize−1, the largest Validate accepts) must inject into
// the single non-elite slot without panicking.
func TestInjectAtMaxElites(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(8)
	cfg.ULPopSize, cfg.LLPopSize = 3, 3
	cfg.ULArchiveSize, cfg.LLArchiveSize = 3, 3
	cfg.Elites = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	migrant := mk.PriceBounds().RandomVector(rng.New(99))
	if err := e.InjectPrey(migrant); err != nil {
		t.Fatal(err)
	}
	for i, v := range migrant {
		if e.prey[2][i] != v {
			t.Fatal("migrant prey not placed in the non-elite slot")
		}
	}
	tree := e.set.Ramped(rng.New(100), 1, 2)
	if err := e.InjectPredator(tree); err != nil {
		t.Fatal(err)
	}
	if e.predators[2].String(e.set) != tree.String(e.set) {
		t.Fatal("migrant predator not placed in the non-elite slot")
	}
	if !e.Step() {
		t.Fatal(e.Err())
	}

	// Validate must keep rejecting Elites == PopSize — the guard that
	// makes the slot arithmetic above safe.
	bad := cfg
	bad.Elites = bad.ULPopSize
	if err := bad.Validate(); err == nil {
		t.Fatal("Elites == ULPopSize accepted")
	}
	bad = cfg
	bad.LLPopSize = 5
	bad.Elites = 5 // == LLPopSize while < ULPopSize is impossible here; check LL side directly
	bad.ULPopSize = 8
	if err := bad.Validate(); err == nil {
		t.Fatal("Elites == LLPopSize accepted")
	}
}

// TestNoBetterGenerationArchivesFree: once both archives are full, a
// generation in which no predator and no prey beats the worst archived
// entry costs the archives nothing: no key is built and nothing copied.
func TestNoBetterGenerationArchivesFree(t *testing.T) {
	cfg := smallConfig(3)
	cfg.ULEvalBudget = 1 << 30
	cfg.LLEvalBudget = 1 << 30
	e, err := NewEngine(smallMarket(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; e.ulArch.Len() < cfg.ULArchiveSize || e.gpArch.Len() < cfg.LLArchiveSize; gen++ {
		if gen == 50 || !e.Step() {
			t.Fatalf("archives not full after %d generations (%v)", gen, e.Err())
		}
	}
	worstPrey := e.ulArch.At(e.ulArch.Len() - 1).Fitness
	worstPred := e.gpArch.At(e.gpArch.Len() - 1).Fitness
	for i := range e.preyFit {
		e.preyFit[i], e.preyErr[i] = worstPrey, nil
	}
	for i := range e.predFit {
		e.predFit[i], e.predQuar[i] = worstPred, false
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, adds := e.archivePredators(); adds != 0 {
			t.Fatalf("GP archive admitted %d no-better predators", adds)
		}
		if adds := e.archivePrey(); adds != 0 {
			t.Fatalf("UL archive admitted %d no-better prey", adds)
		}
	})
	if allocs != 0 {
		t.Fatalf("offering a no-better generation allocated %v times", allocs)
	}
}

// BenchmarkEngineStep times whole generations on a mid-size market and
// reports the measured LP solves per generation — the headline number
// of the shared-relaxation cache (was L×S+U = 48 per generation at
// this configuration; now at most U = 16). The sub-benchmarks step the
// same engine bare, observed (observer + lineage + SearchStats) and
// span-traced. Workers is pinned to 1 so the trajectory does not
// depend on the machine's GOMAXPROCS.
func BenchmarkEngineStep(b *testing.B) {
	mk := smallMarket(b)
	for _, mode := range []string{"bare", "search", "spans"} {
		b.Run(mode, func(b *testing.B) {
			cfg := smallConfig(1)
			cfg.Workers = 1
			cfg.ULEvalBudget = 1 << 30
			cfg.LLEvalBudget = 1 << 30
			reg := telemetry.NewRegistry()
			cfg.Metrics = reg
			statsBlocks := 0
			switch mode {
			case "search":
				cfg.Observer = FuncObserver{Generation: func(gs GenStats) {
					if gs.Search != nil {
						statsBlocks++
					}
				}}
			case "spans":
				cfg.Spans = span.New(span.NewWriterExporter(io.Discard))
			}
			e, err := NewEngine(mk, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !e.Step() {
					b.Fatal(e.Err())
				}
			}
			b.StopTimer()
			if mode == "search" && statsBlocks != b.N {
				b.Fatalf("observer saw %d stats blocks over %d steps", statsBlocks, b.N)
			}
			solves := reg.Counter("bcpop.lp_solves").Load()
			b.ReportMetric(float64(solves)/float64(b.N), "lp_solves/gen")
		})
	}
}

// TestChildrenStartFromParentBasis: after breeding, every child of a
// healthy parent carries that parent's final LP basis, so the elite (a
// verbatim copy) re-solves in zero pivots, and every later generation
// takes fewer pivots than the first, whose prey are all parentless.
// The pivots GenStats reports match the bcpop.lp_pivots counter.
func TestChildrenStartFromParentBasis(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(31)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	var pivots []int
	cfg.Observer = FuncObserver{Generation: func(gs GenStats) { pivots = append(pivots, gs.LPPivots) }}
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 1; e.Step(); gen++ {
		for i, b := range e.preyBasis {
			if b == nil {
				t.Fatalf("gen %d: child %d has no start basis", gen, i)
			}
		}
		elite := e.cache.At(e.preySlot[e.preyOrigins[0].p1]).Rx.Basis
		if e.preyOrigins[0].op != opElite || e.preyBasis[0] != elite {
			t.Fatalf("gen %d: the elite does not start from its parent's basis", gen)
		}
		if gen > 1 {
			if p := e.cache.At(e.preySlot[0]); p.Rx.Pivots != 0 {
				t.Fatalf("gen %d: the elite re-solved in %d pivots", gen, p.Rx.Pivots)
			}
		}
	}
	total := 0
	for g, n := range pivots {
		total += n
		if g > 0 && n >= pivots[0] {
			t.Errorf("generation %d took %d pivots, generation 1 %d", g+1, n, pivots[0])
		}
	}
	if got := reg.Counter("bcpop.lp_pivots").Load(); got != int64(total) {
		t.Fatalf("bcpop.lp_pivots = %d, GenStats sum %d", got, total)
	}
}
