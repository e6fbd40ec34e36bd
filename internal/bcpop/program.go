// Compiled-predator evaluation (DESIGN.md §5j).
//
// EvalTreeWith re-decodes the predator's prefix nodes for every one of
// the M×N (item, service) pairs of a prepared context and zeroes a
// 4KiB interpreter stack per pair. The compiled path lowers the tree
// to bytecode once (CompileTree) and sweeps the program across the
// whole context with reused scratch (EvalProgramWith): same results
// bit-for-bit — the VM replays the interpreter's exact operation
// sequence and the greedy runs the identical algorithm on identical
// scores — but with zero steady-state allocations. The engine compiles
// each predator once per generation and evaluates it against every
// cached prey context; the interpreter remains the test oracle the VM
// is checked against.
package bcpop

import (
	"time"

	"carbon/internal/covering"
	"carbon/internal/gp"
)

// CompileTree lowers a predator tree to bytecode, reusing this
// evaluator's program arena: one CompileTree per (predator, worker,
// generation), after which the evaluation wave allocates nothing. The
// returned program aliases evaluator-owned storage and is valid until
// the next CompileTree on this evaluator — use gp.Compile directly for
// a program that must outlive that (e.g. one shared read-only across
// workers).
func (ev *Evaluator) CompileTree(tree gp.Tree) (*gp.Program, error) {
	if err := ev.prog.Compile(ev.set, tree); err != nil {
		return nil, err
	}
	return &ev.prog, nil
}

// EvalProgramWith is EvalTreeWith for a compiled predator: it scores
// items by replaying the program against the cached relaxation, runs
// the greedy and reports the paired Result plus the follower basket.
// Results are bit-identical to EvalTreeWith on the program's source
// tree, and the metrics accounting is the same — one LL evaluation
// (Evals), one TreeEvals, one CacheHits, no LP solve. Unlike
// EvalTreeWith, the returned basket aliases evaluator scratch and is
// only valid until the next evaluation on this evaluator; copy it to
// retain it.
func (ev *Evaluator) EvalProgramWith(p *Prepared, prog *gp.Program) (Result, []bool, error) {
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
	covering.ScoreProgramInto(p.In, p.Rx, ev.vm, prog, ev.scores)
	res := p.In.GreedyByScoreInto(ev.scores, ev.Eliminate, &ev.greedy)
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
