// Compiled-predator evaluation (DESIGN.md §5j).
//
// Every tree-driven evaluation scores items with a compiled gp.Forest
// against a prepared context. The engine compiles the whole predator
// population into one hash-consed forest per generation, scores every
// distinct tree against a prepared context in one sweep
// (covering.ScoreForestInto) and hands each predator's score row to
// EvalScoresWith, which runs the greedy with reused scratch.
// EvalProgramWith is the same for a single compiled tree (the hunter,
// Result's CostFitness re-measurement, the examples). Both are
// bit-identical to scoring the source tree with covering.TreeScorer and
// running GreedyByScore — the runner replays the tree walker's exact
// operations and the greedy runs the identical algorithm on identical
// scores — with zero steady-state allocations. The tree walker is the
// test oracle the runner is checked against and has no production
// caller.
package bcpop

import (
	"time"

	"carbon/internal/covering"
	"carbon/internal/gp"
)

// EvalScoresWith pairs a prepared pricing context with item scores the
// caller already computed for it — one predator's row of a forest
// sweep: it runs the greedy and reports the paired Result plus the
// follower basket. EvalFault is consulted first; the call then charges
// one LL evaluation (Evals), one TreeEvals, one CacheHits and no LP
// solve, and the latency it records (EvalTime, EvalLatency) covers the
// greedy only, since the scores came from elsewhere. scores is only read. The returned basket aliases
// evaluator scratch and is only valid until the next evaluation on
// this evaluator; copy it to retain it.
func (ev *Evaluator) EvalScoresWith(p *Prepared, scores []float64) (Result, []bool, error) {
	if p == nil {
		return Result{}, nil, ErrNotPrepared
	}
	if ev.EvalFault != nil {
		if err := ev.EvalFault(); err != nil {
			return Result{}, nil, err
		}
	}
	var t0 time.Time
	if ev.Metrics != nil {
		t0 = time.Now()
	}
	res := p.In.GreedyByScoreInto(scores, ev.Eliminate, &ev.greedy)
	ev.Evals++
	out := ev.result(p.Price, p.Rx, res)
	if m := ev.Metrics; m != nil {
		m.TreeEvals.Inc()
		m.CacheHits.Inc()
		if ev.Eliminate {
			m.Elims.Inc()
		}
		m.observe(t0, out)
	}
	return out, res.X, nil
}

// EvalProgramWith pairs a prepared pricing context with a compiled
// heuristic: it scores items by running the program against the cached
// relaxation, then finishes as EvalScoresWith — same accounting, and a
// basket that aliases evaluator scratch.
func (ev *Evaluator) EvalProgramWith(p *Prepared, prog *gp.Program) (Result, []bool, error) {
	if p == nil {
		return Result{}, nil, ErrNotPrepared
	}
	covering.ScoreProgramInto(p.In, p.Rx, ev.vm, prog, ev.scores)
	return ev.EvalScoresWith(p, ev.scores)
}

// ScoreForest scores the items of a prepared context with every
// distinct tree of a compiled forest, on this evaluator's VM: row r of
// slab (f.Rows() rows of M) receives row r's scores, bit-identical to
// scoring each source tree alone. p must be non-nil.
func (ev *Evaluator) ScoreForest(p *Prepared, f *gp.Forest, slab []float64) {
	covering.ScoreForestInto(p.In, p.Rx, ev.vm, f, slab)
}
