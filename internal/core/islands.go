package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"carbon/internal/bcpop"
	"carbon/internal/gp"
	"carbon/internal/par"
	"carbon/internal/span"
)

// IslandConfig parameterizes the island-model variant of CARBON: K
// independent engines evolve in parallel and every MigrateEvery
// generations each island sends its archived elites to the next island
// on a ring, island i to island (i+1) mod K. Islands are the classic
// coarse-grained parallelization of evolutionary algorithms — each
// island is internally sequential (deterministic per seed), and the only
// synchronization is the per-generation step barrier, so the model
// scales to one core per island.
type IslandConfig struct {
	Islands      int // number of islands (≥ 2)
	MigrateEvery int // generations between migrations (≥ 1)
	Migrants     int // elites of each kind sent per migration (≥ 1)
	Workers      int // islands stepped concurrently (0 = GOMAXPROCS)
}

// DefaultIslandConfig returns a 4-island ring migrating its best prey
// and predator every 5 generations.
func DefaultIslandConfig() IslandConfig {
	return IslandConfig{Islands: 4, MigrateEvery: 5, Migrants: 1}
}

// Validate rejects unusable island configurations.
func (ic *IslandConfig) Validate() error {
	switch {
	case ic.Islands < 2:
		return errors.New("core: island model needs at least 2 islands")
	case ic.MigrateEvery < 1:
		return errors.New("core: MigrateEvery must be at least 1")
	case ic.Migrants < 1:
		return errors.New("core: Migrants must be at least 1")
	}
	return nil
}

// IslandResult is the outcome of an island-model run.
type IslandResult struct {
	Best       BestPair  // best pairing across all islands
	BestIsland int       // which island produced it
	PerIsland  []*Result // each island's own summary
	Migrations int
}

// migrate performs one ring migration round in two phases. First every
// island's best prey and predator are snapshotted, so no island forwards
// an elite it received in the same round. Then island i's snapshot goes
// into island (i+1) mod K: receivers in ascending order, each migrant
// Migrants times, prey before predator — the order each receiving
// engine's RNG consumption, and so the run's bits, depend on. An island
// with an empty archive sends nothing of that kind. OnMigration fires
// after an edge's injections succeed, so an aborted edge reports no
// event. An injection can only fail because the receiver rejected the
// migrant (wrong dimension, primitive-set mismatch), so the error names
// both islands.
func migrate(engines []*Engine, ic IslandConfig, obs Observer, label string, gen int) error {
	type elites struct {
		prey     []float64 // nil when the island has no archived prey yet
		pred     gp.Tree
		havePred bool
	}
	snap := make([]elites, len(engines))
	for i, e := range engines {
		snap[i].prey, _, _ = e.BestPrey()
		snap[i].pred, _, snap[i].havePred = e.BestPredator()
	}
	for to, dst := range engines {
		from := (to - 1 + len(engines)) % len(engines)
		s := snap[from]
		for m := 0; m < ic.Migrants; m++ {
			if s.prey != nil {
				if err := dst.InjectPrey(s.prey); err != nil {
					return fmt.Errorf("core: island %d: migrant prey from island %d: %w", to, from, err)
				}
			}
			if s.havePred {
				if err := dst.InjectPredator(s.pred); err != nil {
					return fmt.Errorf("core: island %d: migrant predator from island %d: %w", to, from, err)
				}
			}
		}
		if obs != nil {
			obs.OnMigration(MigrationStats{
				Label: label,
				Gen:   gen, From: from, To: to, Migrants: ic.Migrants,
			})
		}
	}
	return nil
}

// RunIslands executes the island model. The per-level evaluation budgets
// of cfg are split evenly across the islands, so an island run is
// budget-comparable to a single Run with the same cfg. Each island gets
// a distinct seed derived from cfg.Seed, and Workers is pinned to 1
// inside each island (parallelism comes from stepping islands
// concurrently).
func RunIslands(mk *bcpop.Market, cfg Config, ic IslandConfig) (*IslandResult, error) {
	return RunIslandsContext(context.Background(), mk, cfg, ic)
}

// RunIslandsContext is RunIslands with cooperative cancellation, checked
// before each generation (the only point where all islands are
// quiescent). See RunContext for the cancellation contract.
func RunIslandsContext(ctx context.Context, mk *bcpop.Market, cfg Config, ic IslandConfig) (*IslandResult, error) {
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	islandCfg := cfg
	islandCfg.ULEvalBudget = cfg.ULEvalBudget / ic.Islands
	islandCfg.LLEvalBudget = cfg.LLEvalBudget / ic.Islands
	islandCfg.Workers = 1
	if err := islandCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: budgets too small for %d islands: %w", ic.Islands, err)
	}

	engines := make([]*Engine, ic.Islands)
	for i := range engines {
		c := islandCfg
		c.Seed = cfg.Seed + uint64(i)*1_000_003 + 17
		e, err := NewEngine(mk, c)
		if err != nil {
			return nil, err
		}
		e.island = i // tags this engine's GenStats for the shared observer
		engines[i] = e
	}

	res := &IslandResult{}
	gen := 0
	for {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: island run canceled after generation %d: %w", gen, cerr)
		}
		// Step every island concurrently; the engines share no state,
		// so the only synchronization is this barrier. The shared
		// observer (cfg.Observer) is called from these goroutines and
		// must be safe for concurrent use. An exhausted island's Step
		// is a no-op, so it keeps receiving migrants until every island
		// is done.
		progressed := make([]bool, len(engines))
		par.ForEach(len(engines), ic.Workers, func(i int) {
			progressed[i] = engines[i].Step()
		})
		// A terminally failed island aborts the run before `progressed`
		// is consulted: its false is "failed", not "budget exhausted",
		// and treating the two alike would let the surviving islands
		// keep evolving (and migrating stale elites out of the dead
		// island's archives) as if nothing happened.
		for i, e := range engines {
			if err := e.Err(); err != nil {
				return nil, fmt.Errorf("core: island %d: %w", i, err)
			}
		}
		if !slices.Contains(progressed, true) {
			break
		}
		gen++
		if gen%ic.MigrateEvery != 0 {
			continue
		}
		// Migration is the only cross-island phase, so it gets its own
		// span (parented like the gen spans) rather than hiding inside
		// some island's generation.
		msp := cfg.Spans.Start(cfg.SpanParent, "migration").Kind(span.KindCompute).
			Attr("gen", gen).Attr("migrants", ic.Migrants*ic.Islands)
		err := migrate(engines, ic, cfg.Observer, cfg.RunLabel, gen)
		msp.End()
		if err != nil {
			return nil, err
		}
		res.Migrations++
	}

	// The cross-island best: islands in ascending order, best revenue
	// wins the price, best (lowest) gap wins the heuristic.
	res.PerIsland = make([]*Result, len(engines))
	bestRevenue := -1.0
	bestGap := -1.0
	for i, e := range engines {
		r, err := e.Result()
		if err != nil {
			return nil, err
		}
		res.PerIsland[i] = r
		if r.Best.Revenue > bestRevenue {
			bestRevenue = r.Best.Revenue
			res.Best.Price = r.Best.Price
			res.Best.Revenue = r.Best.Revenue
			res.BestIsland = i
		}
		if bestGap < 0 || r.Best.GapPct < bestGap {
			bestGap = r.Best.GapPct
			res.Best.Tree = r.Best.Tree
			res.Best.TreeStr = r.Best.TreeStr
			res.Best.Simplified = r.Best.Simplified
			res.Best.GapPct = r.Best.GapPct
		}
	}
	if cfg.Observer != nil {
		// The completion event reports the winning island's summary
		// (the cross-island Best may mix islands; per-island results
		// are in PerIsland).
		cfg.Observer.OnDone(res.PerIsland[res.BestIsland])
	}
	return res, nil
}
