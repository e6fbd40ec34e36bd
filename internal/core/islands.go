package core

import (
	"context"
	"errors"
	"fmt"

	"carbon/internal/bcpop"
	"carbon/internal/par"
	"carbon/internal/span"
)

// IslandConfig parameterizes the island-model variant of CARBON: K
// independent engines evolve in parallel and periodically migrate their
// archived elites along a topology. Islands are the classic
// coarse-grained parallelization of evolutionary algorithms — each
// island is internally sequential (deterministic per seed), and the only
// synchronization is the migration barrier, so the model scales to one
// core per island — or, through a Transport, to one *machine* per group
// of islands (see RunIslandsShard and internal/cluster/netmigrate).
type IslandConfig struct {
	Islands      int      // number of islands (≥ 2)
	MigrateEvery int      // generations between migrations (≥ 1)
	Migrants     int      // elites of each kind sent per migration (≥ 1)
	Workers      int      // islands stepped concurrently (0 = GOMAXPROCS)
	Topology     Topology // migration pattern ("" = ring)
}

// DefaultIslandConfig returns a 4-island ring migrating its best prey
// and predator every 5 generations.
func DefaultIslandConfig() IslandConfig {
	return IslandConfig{Islands: 4, MigrateEvery: 5, Migrants: 1, Topology: TopologyRing}
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
	case !ic.Topology.valid():
		return fmt.Errorf("core: unknown island topology %q", ic.Topology)
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

// ShardResult is one shard's share of a distributed island run: the
// summaries of the islands it hosted, in the order of Islands.
type ShardResult struct {
	Islands    []int // global island indices this shard ran (ascending)
	PerIsland  []*Result
	Migrations int
}

// migrateShard performs one migration round for the local islands: the
// send phase ships every local island's elites to its topology
// destinations through the transport, then the receive phase collects
// what each local island is owed — sources in ascending island order,
// the order the receiving engine's RNG consumption is defined by — and
// injects it. OnMigration fires on the receive side after a successful
// injection, so an aborted edge never reports an event (and in a
// distributed run each shard observes exactly the migrants that reached
// it). Errors carry the island context: an injection can only fail
// because the destination engine rejected the migrant (wrong dimension,
// primitive-set mismatch), which points at that island's configuration.
func migrateShard(islands []int, engines []*Engine, ic IslandConfig, tr Transport, obs Observer, label string, gen int) error {
	for k, i := range islands {
		b := engines[k].outgoing(gen, i, ic.Migrants)
		for _, dst := range ic.destinations(i) {
			eb := b
			eb.To = dst
			if err := tr.Send(eb); err != nil {
				return fmt.Errorf("core: island %d: send migrants to island %d: %w", i, dst, err)
			}
		}
	}
	for k, j := range islands {
		dst := engines[k]
		for _, src := range ic.sources(j) {
			b, err := tr.Recv(src, j, gen)
			if err != nil {
				return fmt.Errorf("core: island %d: receive migrants from island %d: %w", j, src, err)
			}
			if err := dst.Receive(b); err != nil {
				return err
			}
			if obs != nil {
				obs.OnMigration(MigrationStats{
					Label: label,
					Gen:   gen, From: src, To: j, Migrants: ic.Migrants,
				})
			}
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
// at the per-generation migration barrier (the only point where all
// islands are quiescent). See RunContext for the cancellation contract.
func RunIslandsContext(ctx context.Context, mk *bcpop.Market, cfg Config, ic IslandConfig) (*IslandResult, error) {
	return RunIslandsTransport(ctx, mk, cfg, ic, NewLocalTransport(1))
}

// RunIslandsTransport is RunIslandsContext with an explicit migrant
// transport — the seam the golden tests and the networked island model
// hang off. With NewLocalTransport(1) it is exactly RunIslands.
func RunIslandsTransport(ctx context.Context, mk *bcpop.Market, cfg Config, ic IslandConfig, tr Transport) (*IslandResult, error) {
	all := make([]int, 0, ic.Islands)
	for i := 0; i < ic.Islands; i++ {
		all = append(all, i)
	}
	sh, err := RunIslandsShard(ctx, mk, cfg, ic, all, tr)
	if err != nil {
		return nil, err
	}
	res := MergeShards(sh)
	if cfg.Observer != nil {
		// The completion event reports the winning island's summary
		// (the cross-island Best may mix islands; per-island results
		// are in PerIsland).
		cfg.Observer.OnDone(res.PerIsland[res.BestIsland])
	}
	return res, nil
}

// RunIslandsShard runs the given subset of a K-island model's islands in
// this process, exchanging migrants and liveness over the transport.
// Every shard of one run must be started with the same (mk-producing
// spec, cfg, ic) and a disjoint cover of {0..K-1}; each island derives
// its seed from its *global* index, so how islands are grouped onto
// shards cannot change any island's stream — a sharded run is
// bit-identical to RunIslands with the same seed and topology.
func RunIslandsShard(ctx context.Context, mk *bcpop.Market, cfg Config, ic IslandConfig, islands []int, tr Transport) (*ShardResult, error) {
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(islands) == 0 {
		return nil, errors.New("core: shard hosts no islands")
	}
	seen := make(map[int]bool)
	for k, i := range islands {
		if i < 0 || i >= ic.Islands || seen[i] || (k > 0 && islands[k-1] > i) {
			return nil, fmt.Errorf("core: shard island list %v must be ascending, unique and within [0,%d)", islands, ic.Islands)
		}
		seen[i] = true
	}
	if tr == nil {
		return nil, errors.New("core: shard needs a transport")
	}
	islandCfg := cfg
	islandCfg.ULEvalBudget = cfg.ULEvalBudget / ic.Islands
	islandCfg.LLEvalBudget = cfg.LLEvalBudget / ic.Islands
	islandCfg.Workers = 1
	if err := islandCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: budgets too small for %d islands: %w", ic.Islands, err)
	}

	engines := make([]*Engine, len(islands))
	for k, i := range islands {
		c := islandCfg
		c.Seed = cfg.Seed + uint64(i)*1_000_003 + 17
		e, err := NewEngine(mk, c)
		if err != nil {
			return nil, err
		}
		e.island = i // tags this engine's GenStats for the shared observer
		engines[k] = e
	}

	// links is how many topology edges originate on this shard — the
	// migrant count the migration span advertises.
	links := 0
	for _, i := range islands {
		links += len(ic.destinations(i))
	}

	res := &ShardResult{Islands: append([]int(nil), islands...)}
	gen := 0
	for {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: island run canceled after generation %d: %w", gen, cerr)
		}
		// Step every live local island concurrently; the engines share
		// no state, so the only synchronization is this barrier. The
		// shared observer (cfg.Observer) is called from these
		// goroutines and must be safe for concurrent use.
		progressed := make([]bool, len(engines))
		par.ForEach(len(engines), ic.Workers, func(i int) {
			progressed[i] = engines[i].Step()
		})
		// A terminally failed island aborts the run before `progressed`
		// is consulted: its false is "failed", not "budget exhausted",
		// and treating the two alike would let the surviving islands
		// keep evolving (and migrating stale elites out of the dead
		// island's archives) as if nothing happened.
		for k, e := range engines {
			if err := e.Err(); err != nil {
				return nil, fmt.Errorf("core: island %d: %w", islands[k], err)
			}
		}
		local := false
		for _, p := range progressed {
			local = local || p
		}
		// The liveness barrier: every shard publishes whether any of
		// its islands still had budget this generation, and the run
		// continues while anyone anywhere does. Exhausted islands keep
		// attending barriers and migrations (a Step on them is a no-op)
		// so migration rounds stay aligned across shards — exactly the
		// behavior the single-process loop always had for islands that
		// ran out of budget before their neighbors.
		any, err := tr.Barrier(gen+1, local)
		if err != nil {
			return nil, fmt.Errorf("core: liveness barrier after generation %d: %w", gen+1, err)
		}
		if !any {
			break
		}
		gen++
		if gen%ic.MigrateEvery != 0 {
			continue
		}
		// The migration barrier is the only cross-island phase, so it
		// gets its own span (parented like the gen spans) rather than
		// hiding inside some island's generation.
		msp := cfg.Spans.Start(cfg.SpanParent, "migration").Kind(span.KindCompute).
			Attr("gen", gen).Attr("migrants", ic.Migrants*links)
		err = migrateShard(islands, engines, ic, tr, cfg.Observer, cfg.RunLabel, gen)
		msp.End()
		if err != nil {
			return nil, err
		}
		res.Migrations++
	}

	res.PerIsland = make([]*Result, len(engines))
	for k, e := range engines {
		r, err := e.Result()
		if err != nil {
			return nil, err
		}
		res.PerIsland[k] = r
	}
	return res, nil
}

// MergeShards combines shard results into the run summary, selecting
// the cross-island best exactly the way the single-process island loop
// always did: islands considered in ascending global order, best
// revenue wins price, best (lowest) gap wins heuristic. Passing shards
// that together cover islands 0..K-1 of one run reproduces RunIslands'
// IslandResult bit for bit.
func MergeShards(shards ...*ShardResult) *IslandResult {
	byIsland := make(map[int]*Result)
	islands := 0
	migrations := 0
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		for k, i := range sh.Islands {
			byIsland[i] = sh.PerIsland[k]
			if i+1 > islands {
				islands = i + 1
			}
		}
		if sh.Migrations > migrations {
			migrations = sh.Migrations
		}
	}
	res := &IslandResult{Migrations: migrations, PerIsland: make([]*Result, islands)}
	bestRevenue := -1.0
	bestGap := -1.0
	for i := 0; i < islands; i++ {
		r := byIsland[i]
		if r == nil {
			continue
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
	return res
}
