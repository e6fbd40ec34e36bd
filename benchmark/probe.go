package main

import (
	"fmt"
	"strconv"
	"time"

	"carbon/internal/bcpop"
	"carbon/internal/checkpoint"
	"carbon/internal/core"
	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/lp"
	"carbon/internal/span"
	"carbon/internal/telemetry"
)

// A replay covers the first probePrey distinct prey and the first
// probePredators predators of a snapshot, which keeps a paper-scale probe
// to about a second per snapshot.
const (
	probePrey      = 32
	probePredators = 32
)

// probeStats collects the per-call samples of a probe replay.
type probeStats struct {
	warm, cold, prepare, compile, eval, score, greedy []float64 // µs
	warmPiv, coldPiv                                  []float64
	nodes                                             []float64
}

// probe reruns the engine of a workload's first item (same market, same
// config, so the same trajectory), snapshots it after generation 1, the
// middle one and the last, and replays each snapshot's population through
// the lower layers one public call at a time: the LP relaxation
// (lp.WarmSolver, with the engine's per-generation reset and per-stripe
// warm chaining, plus cold solves), bcpop.Prepare, gp.Compile,
// bcpop.EvalProgramWith, covering.ScoreProgramInto and
// covering.GreedyByScoreInto. Every solve is KKT-certified and every
// evaluation must satisfy A ≥ LB. None of this is inside a timed step.
func (c *runCtx) probe(mk *bcpop.Market, cfg core.Config) error {
	sp := c.tr.Start(c.root.Context(), "probe").Kind(span.KindCompute)
	defer sp.End()
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	e, err := core.NewEngine(mk, cfg)
	if err != nil {
		return err
	}
	last := cfg.ULEvalBudget / cfg.ULPopSize
	at := map[int]bool{1: true, (last + 1) / 2: true, last: true}
	var snaps []*checkpoint.State
	for e.Step() {
		if at[e.Gens()] {
			st, err := e.Snapshot()
			if err != nil {
				return err
			}
			snaps = append(snaps, st)
		}
	}
	c.rec.check(e.Err() == nil && e.Gens() == last, "probe engine stopped at generation %d: %v", e.Gens(), e.Err())
	var ps probeStats
	for _, st := range snaps {
		if err := c.replay(&ps, mk, cfg, st, sp.Context()); err != nil {
			return err
		}
	}

	gens := float64(reg.Counter("core.generations").Load())
	hits := float64(reg.Counter("bcpop.cache_hits").Load())
	misses := float64(reg.Counter("bcpop.cache_misses").Load())
	for _, d := range []struct {
		name, unit string
		v          float64
	}{
		{"lp.solves_per_gen", "count", float64(reg.Counter("bcpop.lp_solves").Load()) / gens},
		{"lp.pivots_per_solve.warm", "count", mean(ps.warmPiv)},
		{"lp.pivots_per_solve.cold", "count", mean(ps.coldPiv)},
		{"bcpop.cache_hit_ratio", "ratio", hits / (hits + misses)},
		{"gp.tree_nodes.mean", "nodes", mean(ps.nodes)},
	} {
		c.rec.Det[d.name] = strconv.FormatFloat(d.v, 'g', -1, 64)
		c.rec.set(d.name, d.v, d.unit)
	}
	c.rec.set("lp.warm_solve_us.p50", median(ps.warm), "us")
	c.rec.set("lp.cold_solve_us.p50", median(ps.cold), "us")
	c.rec.set("bcpop.prepare_us.p50", median(ps.prepare), "us")
	c.rec.set("bcpop.eval_program_us.p50", median(ps.eval), "us")
	c.rec.set("gp.compile_us.p50", median(ps.compile), "us")
	c.rec.set("covering.score_us.p50", median(ps.score), "us")
	c.rec.set("covering.greedy_us.p50", median(ps.greedy), "us")
	return nil
}

// timed runs fn under a span named name and returns its duration in µs.
func (c *runCtx) timed(parent span.Context, name string, fn func()) float64 {
	sp := c.tr.Start(parent, name).Kind(span.KindCompute)
	t := time.Now()
	fn()
	d := time.Since(t)
	sp.End()
	return us(d)
}

func (c *runCtx) replay(ps *probeStats, mk *bcpop.Market, cfg core.Config, st *checkpoint.State, parent span.Context) error {
	set := covering.TableISet()
	// Distinct prey in first-occurrence order: the engine's cache slots,
	// one LP solve each.
	seen := map[string]bool{}
	var distinct [][]float64
	for _, x := range st.Prey {
		if k := bcpop.Key(x); !seen[k] && len(distinct) < probePrey {
			seen[k] = true
			distinct = append(distinct, x)
		}
	}
	n, workers := len(distinct), cfg.Workers
	tmpl := mk.Template()
	base := lp.Problem{C: tmpl.C, A: tmpl.Q, Rel: make([]lp.Relation, tmpl.N()), B: tmpl.B,
		Lo: make([]float64, tmpl.M()), Up: make([]float64, tmpl.M())}
	for j := range base.Up {
		base.Up[j] = 1
	}
	costs := make([][]float64, n)
	for i, x := range distinct {
		var err error
		if costs[i], err = mk.Costs(x, nil); err != nil {
			return err
		}
	}
	solve := func(ws *lp.WarmSolver, i int, name string) (float64, float64, error) {
		var sol *lp.Solution
		var err error
		it := ws.Iterations()
		d := c.timed(parent, name, func() { sol, err = ws.SolveWithCosts(costs[i]) })
		if err != nil {
			return 0, 0, err
		}
		p := base
		p.C = costs[i]
		kkt := lp.CheckKKT(&p, sol, 1e-6)
		c.rec.check(kkt == nil, "gen %d prey %d: KKT: %v", st.Gens, i, kkt)
		return d, float64(ws.Iterations() - it), nil
	}
	// Warm chains: one fresh solver per stripe (the engine resets every
	// evaluator at the generation boundary), each solving its stripe in
	// order. A chain's first solve is cold and not counted as warm.
	for w := 0; w < workers; w++ {
		ws, err := lp.NewWarmSolver(&base)
		if err != nil {
			return err
		}
		for i := n * w / workers; i < n*(w+1)/workers; i++ {
			d, piv, err := solve(ws, i, "probe.lp.solve")
			if err != nil {
				return err
			}
			if i > n*w/workers {
				ps.warm = append(ps.warm, d)
				ps.warmPiv = append(ps.warmPiv, piv)
			}
		}
	}
	cold, err := lp.NewWarmSolver(&base)
	if err != nil {
		return err
	}
	for i := 0; i < n; i += 8 {
		cold.Reset()
		d, piv, err := solve(cold, i, "probe.lp.cold")
		if err != nil {
			return err
		}
		ps.cold = append(ps.cold, d)
		ps.coldPiv = append(ps.coldPiv, piv)
	}

	// Prepared contexts, striped over per-worker evaluators like the
	// engine's relaxation wave.
	evs := make([]*bcpop.Evaluator, workers)
	for w := range evs {
		if evs[w], err = bcpop.NewEvaluator(mk, set); err != nil {
			return err
		}
	}
	prepared := make([]*bcpop.Prepared, n)
	for w := 0; w < workers; w++ {
		for i := n * w / workers; i < n*(w+1)/workers; i++ {
			var perr error
			ps.prepare = append(ps.prepare, c.timed(parent, "probe.prepare", func() {
				prepared[i], perr = evs[w].Prepare(distinct[i])
			}))
			if perr != nil {
				return perr
			}
		}
	}

	// Each replayed predator against the first EffectiveSample contexts: the
	// evaluator call, then its two covering stages on their own, which
	// must reproduce the evaluator's follower cost exactly.
	ev := evs[0]
	vm := gp.NewVM()
	scores := make([]float64, tmpl.M())
	var scratch covering.GreedyScratch
	for pi, src := range st.Predators[:min(probePredators, len(st.Predators))] {
		tree, err := gp.Parse(set, src)
		if err != nil {
			return fmt.Errorf("gen %d predator %d: %w", st.Gens, pi, err)
		}
		ps.nodes = append(ps.nodes, float64(tree.Size()))
		var prog *gp.Program
		var cerr error
		ps.compile = append(ps.compile, c.timed(parent, "probe.compile", func() { prog, cerr = gp.Compile(set, tree) }))
		if cerr != nil {
			return cerr
		}
		for _, p := range prepared[:min(cfg.EffectiveSample(), n)] {
			var out bcpop.Result
			var eerr error
			ps.eval = append(ps.eval, c.timed(parent, "probe.eval", func() { out, _, eerr = ev.EvalProgramWith(p, prog) }))
			if eerr != nil {
				return eerr
			}
			c.rec.check(out.GapPct >= -1e-7, "gen %d predator %d: follower cost %v below LP bound %v", st.Gens, pi, out.LLCost, out.LB)
			ps.score = append(ps.score, c.timed(parent, "probe.score", func() {
				covering.ScoreProgramInto(p.In, p.Rx, vm, prog, scores)
			}))
			var g covering.GreedyResult
			ps.greedy = append(ps.greedy, c.timed(parent, "probe.greedy", func() {
				g = p.In.GreedyByScoreInto(scores, ev.Eliminate, &scratch)
			}))
			c.rec.check(g.Cost == out.LLCost, "gen %d predator %d: covering stages cost %v, evaluator %v", st.Gens, pi, g.Cost, out.LLCost)
		}
	}
	return nil
}
