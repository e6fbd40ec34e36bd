package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"carbon/internal/archive"
	"carbon/internal/bcpop"
	"carbon/internal/covering"
	"carbon/internal/ga"
	"carbon/internal/gp"
	"carbon/internal/lp"
	"carbon/internal/par"
	"carbon/internal/rng"
	"carbon/internal/span"
	"carbon/internal/stats"
	"carbon/internal/telemetry"
)

// Engine is a steppable CARBON run: one Step is one co-evolutionary
// generation (predator evaluation → prey evaluation → archive updates →
// breeding). Run wraps it in the usual budget loop; the island model
// (RunIslands) steps several engines side by side and migrates elites
// between them; user code can step an engine directly for custom
// stopping rules or live monitoring.
type Engine struct {
	mk      *bcpop.Market
	cfg     Config
	set     *gp.Set
	evs     []*bcpop.Evaluator
	workers int
	r       *rng.Rand
	bounds  ga.Bounds

	prey      [][]float64
	predators []gp.Tree
	preyFit   []float64
	predFit   []float64
	preyGap   []float64

	// preyBasis[i] is the LP basis prey i's relaxation starts from: the
	// final basis of its nearer parent, or nil for a parentless prey
	// (generation 1, a migrant, the child of a quarantined slot).
	preyBasis []*lp.Basis

	// Shared-relaxation cache: per generation, one LP solve per
	// distinct prey genotype feeds every (predator, prey) pairing of
	// both evaluation waves. preySlot[i] is prey i's slot in cache;
	// missing is the fill wave's scratch (first-occurrence prey index
	// per fresh slot).
	cache    *bcpop.Cache
	preySlot []int
	missing  []int

	// The generation's prey sample (the prey every predator is scored
	// against), its predators compiled as one hash-consed forest, and
	// its compiled hunter (the best predator, which scores every prey).
	// Set by Step on the coordinator; the waves only read them.
	sample []int
	forest gp.Forest
	hunter gp.Program

	// Predator-wave scratch, allocated once per engine: one score slab
	// per worker (a row of M item scores per distinct predator, made by
	// the worker's first sweep) and the predator-major
	// |predators|×|sample| matrix of pairing results the serial fold
	// reads.
	slabs [][]float64
	pairs []pairing

	ulArch *archive.Archive[[]float64]
	gpArch *archive.Archive[gp.Tree]

	res            *Result
	ulUsed, llUsed int

	// Telemetry and failure state. obs/met/spans are nil when telemetry
	// is off — the hot path then takes the uninstrumented branch with no
	// clock reads and no allocations.
	obs    Observer
	met    *engineMetrics
	island int

	// Span tracing (Config.Spans). spanParent roots each generation
	// span.
	spans      *span.Tracer
	spanParent span.Context

	// Per-generation observation state, reset by beginGen. observing is
	// the one switch every wave consults; genSpan and waveSpan are nil
	// when tracing is off; the nanos feed GenStats.
	observing             bool
	genSpan, waveSpan     *span.Span
	evalNanos, breedNanos int64

	// Failure state. An evaluation that fails mid-wave no longer kills
	// the run: the affected individual is quarantined for the
	// generation (worst-known fitness, kept out of the archives) and
	// faults counts every quarantine. Only a generation with zero
	// successful evaluations in a wave is terminal — err records that
	// cause and Step refuses to run again. mu guards err and faults so
	// Err/Faults may be polled concurrently with Step (a serving
	// front end watching a live engine).
	mu     sync.Mutex
	err    error
	faults int

	// Per-generation quarantine scratch, reused every Step. slotErr is
	// indexed by cache slot (relaxation failures); preyErr/predErr by
	// population index. Wave closures write disjoint indices, so the
	// slices need no locking.
	slotErr  []error
	preyErr  []error
	predErr  []error
	predQuar []bool

	// Search-dynamics introspection (DESIGN.md §5f). Everything below
	// is inert until the first Step with an observer attached, consumes
	// no RNG and issues no extra LP solves, so a run is bit-identical
	// with it on or off. led is the provenance ledger; gapMat collects
	// the paired-evaluation %-gap matrix in pairing-index order;
	// preyOrigins/predOrigins describe how the CURRENT populations were
	// bred from the previous ones, whose fitness is kept in
	// prevPreyFit/prevPredFit for operator-success accounting.
	led          *lineage
	gapMat       []float64
	gapSketch    *telemetry.QuantileSketch
	prevPreyFit  []float64
	prevPredFit  []float64
	preyOrigins  []origin
	predOrigins  []origin
	prevSizeMean float64
}

// engineMetrics holds the engine's registered instruments. All handles
// come from one telemetry.Registry, so islands sharing a registry
// aggregate into the same counters.
type engineMetrics struct {
	gens    *telemetry.Counter
	ulEvals *telemetry.Counter
	llEvals *telemetry.Counter
	waves   [numWaves]*telemetry.Timer
	par     *par.WaveMetrics
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	m := &engineMetrics{
		gens:    reg.Counter("core.generations"),
		ulEvals: reg.Counter("core.ul_evals"),
		llEvals: reg.Counter("core.ll_evals"),
		par:     par.NewWaveMetrics(reg, "par.eval"),
	}
	for w, info := range waves {
		m.waves[w] = reg.Timer(info.timer)
	}
	return m
}

// waveKind names one of the four waves of a generation.
type waveKind int

const (
	waveRelax waveKind = iota
	wavePredEval
	wavePreyEval
	waveBreed
	numWaves
)

// waves is the one phase vocabulary shared by pprof labels, spans and
// telemetry timers: each wave's label/span name, the span attribute
// carrying its size (none for breed) and its timer.
var waves = [numWaves]struct{ name, attr, timer string }{
	waveRelax:    {"relax", "solves", "core.relax_precompute"},
	wavePredEval: {"pred_eval", "pairings", "core.predator_eval"},
	wavePreyEval: {"prey_eval", "prey", "core.prey_eval"},
	waveBreed:    {"breed", "", "core.breed"},
}

// NewEngine validates the configuration and initializes populations,
// archives and per-worker evaluators.
func NewEngine(mk *bcpop.Market, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set := cfg.PrimitiveSet
	if set == nil {
		set = covering.TableISet()
	}
	workers := par.Workers(cfg.Workers)
	evs := make([]*bcpop.Evaluator, workers)
	for i := range evs {
		ev, err := bcpop.NewEvaluator(mk, set)
		if err != nil {
			return nil, err
		}
		ev.Eliminate = !cfg.NoElimination
		evs[i] = ev
	}
	e := &Engine{
		mk: mk, cfg: cfg, set: set, evs: evs, workers: workers,
		r:          rng.New(cfg.Seed),
		bounds:     mk.PriceBounds(),
		res:        &Result{},
		obs:        cfg.Observer,
		met:        newEngineMetrics(cfg.Metrics),
		spans:      cfg.Spans,
		spanParent: cfg.SpanParent,
	}
	if em := bcpop.NewEvalMetrics(cfg.Metrics); em != nil {
		for _, ev := range evs {
			ev.Metrics = em
		}
	}
	if cfg.LPFault != nil || cfg.EvalFault != nil {
		for _, ev := range evs {
			ev.SetLPFault(cfg.LPFault)
			ev.EvalFault = cfg.EvalFault
		}
	}
	e.prey = make([][]float64, cfg.ULPopSize)
	for i := range e.prey {
		e.prey[i] = e.bounds.RandomVector(e.r)
	}
	e.predators = make([]gp.Tree, cfg.LLPopSize)
	for i := range e.predators {
		e.predators[i] = set.Ramped(e.r, cfg.InitDepthMin, cfg.InitDepthMax)
	}
	e.preyBasis = make([]*lp.Basis, cfg.ULPopSize)
	e.preyFit = make([]float64, cfg.ULPopSize)
	e.predFit = make([]float64, cfg.LLPopSize)
	e.preyGap = make([]float64, cfg.ULPopSize)
	e.cache = bcpop.NewCache()
	e.preySlot = make([]int, cfg.ULPopSize)
	e.missing = make([]int, 0, cfg.ULPopSize)
	e.slotErr = make([]error, 0, cfg.ULPopSize)
	e.preyErr = make([]error, cfg.ULPopSize)
	e.predErr = make([]error, cfg.LLPopSize)
	e.predQuar = make([]bool, cfg.LLPopSize)
	e.slabs = make([][]float64, workers)
	e.pairs = make([]pairing, cfg.LLPopSize*cfg.EffectiveSample())
	e.ulArch = archive.New(cfg.ULArchiveSize, false, priceKey, slices.Clone[[]float64])
	e.gpArch = archive.New(cfg.LLArchiveSize, true,
		func(t gp.Tree) string { return t.String(set) }, gp.Tree.Clone)
	return e, nil
}

// CanStep reports whether another generation fits in both budgets. The
// lower-level charge uses Config.EffectiveSample — what Step actually
// spends — not the raw PreySample: charging the unclamped value used to
// stop PreySample > ULPopSize runs early with budget to spare.
func (e *Engine) CanStep() bool {
	return e.ulUsed+e.cfg.ULPopSize <= e.cfg.ULEvalBudget &&
		e.llUsed+e.cfg.LLPopSize*e.cfg.EffectiveSample() <= e.cfg.LLEvalBudget
}

// Gens returns the number of completed generations.
func (e *Engine) Gens() int { return e.res.Gens }

// Err returns the terminal error of a failed Step, or nil. Once set the
// engine refuses to step further. Individual evaluation failures are
// NOT terminal — they quarantine the affected individual for the
// generation and show up in Faults; a Step is terminal only when an
// entire evaluation wave produced zero successful evaluations (every
// relaxation failed, every predator pairing failed, or every prey
// evaluation failed), because then the generation has no fitness signal
// at all. Safe to call concurrently with Step.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Faults returns the cumulative number of quarantined evaluations: prey
// whose relaxation or evaluation failed plus predators none of whose
// pairings survived. A fault-free run reports 0. Safe to call
// concurrently with Step.
func (e *Engine) Faults() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.faults
}

// fail records the terminal error of the current Step. The first fail
// wins: Step checks err at entry, so a later generation can never
// overwrite the original cause.
func (e *Engine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

func (e *Engine) addFaults(n int) {
	e.mu.Lock()
	e.faults += n
	e.mu.Unlock()
}

// Step runs one generation. It returns false (and does nothing) when
// the budgets are exhausted or a previous Step failed terminally; in
// the failure case Err reports the cause.
func (e *Engine) Step() bool {
	if e.Err() != nil || !e.CanStep() {
		return false
	}
	e.beginGen()
	defer e.genSpan.End()
	gen := e.res.Gens + 1

	// --- Relaxation precompute: one LP solve per distinct prey ---
	// Every quantity the pairings below need from the LP (LB, duals, x̄)
	// depends only on the prey, so the |sample| predator pairings and
	// the prey wave share one Prepared context per distinct genotype.
	e.sample = e.r.SampleDistinct(e.cfg.EffectiveSample(), len(e.prey))
	e.assignSlots()
	e.wave(waveRelax, len(e.missing), e.relaxWave)
	firstSlotErr, ok := e.foldRelax(gen)
	if !ok {
		return false
	}

	// --- Predator evaluation: mean gap over a fresh prey sample ---
	gm := e.gapMatrix()
	e.wave(wavePredEval, len(e.predators)*len(e.sample), func() { e.predatorWave(gm) })
	quarPred, ok := e.foldPredators(gen, firstSlotErr)
	if !ok {
		return false
	}
	e.llUsed += len(e.predators) * len(e.sample)
	bestPred, gpAdds := e.archivePredators()

	// --- Prey evaluation: revenue under the best current forecast ---
	// One hunter scores every prey, so it is compiled once and shared
	// read-only across workers (each runs it on its own VM). It was just
	// compiled and evaluated in the predator wave, so a compile failure
	// here is impossible short of memory corruption — terminal.
	if err := e.hunter.Compile(e.set, e.predators[bestPred]); err != nil {
		e.fail(fmt.Errorf("core: generation %d: hunter compile: %w", gen, err))
		return false
	}
	e.wave(wavePreyEval, len(e.prey), e.preyWave)
	quarPrey, ok := e.foldPrey(gen)
	if !ok {
		return false
	}
	e.ulUsed += len(e.prey)
	ulAdds := e.archivePrey()

	// --- Fault accounting for the generation ---
	if genFaults := quarPred + quarPrey; genFaults > 0 {
		e.addFaults(genFaults)
		if em := e.evs[0].Metrics; em != nil {
			em.Faults.Add(int64(genFaults))
		}
	}

	// --- Record convergence ---
	e.res.Gens++
	x := float64(e.ulUsed + e.llUsed)
	if be, ok := e.ulArch.Best(); ok {
		e.res.ULCurve.X = append(e.res.ULCurve.X, x)
		e.res.ULCurve.Y = append(e.res.ULCurve.Y, be.Fitness)
	}
	if be, ok := e.gpArch.Best(); ok {
		e.res.GapCurve.X = append(e.res.GapCurve.X, x)
		e.res.GapCurve.Y = append(e.res.GapCurve.Y, be.Fitness)
	}

	// --- Search-dynamics snapshot (observer runs only) ---
	// Computed before breeding, while the fitness arrays still describe
	// the evaluated populations; consumes no RNG and re-uses the
	// generation's own evaluation results.
	var search *SearchStats
	if e.obs != nil {
		search = e.computeSearchStats(gm, ulAdds, gpAdds)
	}

	// --- Breed next generations ---
	e.wave(waveBreed, 0, e.breed)
	if e.met != nil {
		e.met.gens.Inc()
		e.met.ulEvals.Add(int64(e.cfg.ULPopSize))
		e.met.llEvals.Add(int64(e.cfg.LLPopSize * len(e.sample)))
	}
	if e.obs != nil {
		e.obs.OnGeneration(e.genStats(search))
	}
	return true
}

// beginGen resets the per-generation observation state. An engine
// with no observer, registry or tracer attached is unobserved: its
// waves then make no clock reads, label calls or allocations. The gen
// span covers the whole Step (Step defers its End, so terminal failure
// paths close it too); each wave opens a child under it. It is
// announced, so a process killed mid-generation leaves it open in the
// span file instead of orphaning the waves that already ended.
func (e *Engine) beginGen() {
	e.observing = e.obs != nil || e.met != nil || e.spans != nil
	e.evalNanos, e.breedNanos = 0, 0
	e.genSpan = nil
	if e.spans != nil {
		e.genSpan = e.spans.Start(e.spanParent, "gen").Kind(span.KindCompute).
			Attr("gen", e.res.Gens+1).Attr("island", e.island).Announce()
	}
	if e.obs != nil && e.led == nil {
		e.initLineage()
	}
}

// wave runs one phase of the generation under every observation
// mechanism at once: pprof labels naming the phase and island (worker
// goroutines spawned inside fn inherit them), a child span of the gen
// span carrying the wave's size n, the phase's telemetry timer, and the
// GenStats eval/breed time. All four see the same interval. Unobserved
// engines run fn bare.
func (e *Engine) wave(w waveKind, n int, fn func()) {
	if !e.observing {
		fn()
		return
	}
	info := waves[w]
	e.waveSpan = nil
	if e.spans != nil {
		e.waveSpan = e.spans.Start(e.genSpan.Context(), info.name).Kind(span.KindCompute)
		if info.attr != "" {
			e.waveSpan.Attr(info.attr, n)
		}
		if w == waveRelax {
			// The only wave with child spans (lp.solve): announced, like
			// the gen span, so a process killed mid-wave leaves an open
			// parent for the children it already wrote, not orphans.
			e.waveSpan.Announce()
		}
	}
	t0 := time.Now()
	pprof.Do(context.Background(),
		pprof.Labels("phase", info.name, "island", strconv.Itoa(e.island)),
		func(context.Context) { fn() })
	d := time.Since(t0)
	e.waveSpan.End()
	if w == waveBreed {
		e.breedNanos += int64(d)
	} else {
		e.evalNanos += int64(d)
	}
	if e.met != nil {
		e.met.waves[w].Observe(d)
	}
}

// parMetrics is the worker-occupancy instrument of the evaluation
// waves, nil when the engine has no registry.
func (e *Engine) parMetrics() *par.WaveMetrics {
	if e.met == nil {
		return nil
	}
	return e.met.par
}

// assignSlots maps every prey to its relaxation cache slot. Slots are
// assigned in prey-index order, so missing lists the first-occurrence
// prey index of each fresh slot in slot order, and slotErr is cleared
// to one entry per slot.
func (e *Engine) assignSlots() {
	e.cache.Reset()
	e.missing = e.missing[:0]
	for i, x := range e.prey {
		slot, fresh := e.cache.Slot(x)
		e.preySlot[i] = slot
		if fresh {
			e.missing = append(e.missing, i)
		}
	}
	e.slotErr = e.slotErr[:0]
	for range e.missing {
		e.slotErr = append(e.slotErr, nil)
	}
}

// spanLPStride samples every 8th relaxation solve of a generation as an
// "lp.solve" child span of the relax wave (sampling by index, never by
// the run RNG).
const spanLPStride = 8

// relaxWave fills the cache with one LP relaxation per distinct prey,
// each started from the prey's inherited basis. Parentless prey have
// none: the first of them is solved cold on evs[0] before the parallel
// wave, and the others start from its final basis. Every solve is then
// a pure function of (genotype, start basis), so the wave gives the
// same bits at any Workers. A failed solve quarantines its slot
// (slotErr) instead of aborting the wave: the slot's Prepared stays
// nil, and every prey sharing it is quarantined for this generation.
// Writes are per-slot disjoint.
func (e *Engine) relaxWave() {
	first := slices.IndexFunc(e.missing, func(i int) bool { return e.preyBasis[i] == nil })
	var seed *lp.Basis
	if first >= 0 {
		e.relaxSlot(first, 0, nil)
		if p := e.cache.At(first); p != nil {
			seed = p.Rx.Basis
		}
	}
	par.Striped(len(e.missing), e.workers, e.parMetrics(), func(s, worker int) {
		if s == first {
			return
		}
		start := e.preyBasis[e.missing[s]]
		if start == nil {
			start = seed
		}
		e.relaxSlot(s, worker, start)
	})
}

// relaxSlot solves cache slot s on the given worker's evaluator from the
// basis start. Every spanLPStride-th slot gets an lp.solve child span,
// so the waterfall shows representative solve latencies without a span
// per solve; sp is nil off-sample and when tracing is off, and every
// path below ends it.
func (e *Engine) relaxSlot(s, worker int, start *lp.Basis) {
	i := e.missing[s]
	var sp *span.Span
	if e.spans != nil && s%spanLPStride == 0 {
		sp = e.spans.Start(e.waveSpan.Context(), "lp.solve").Kind(span.KindCompute).
			Attr("prey", i).Attr("worker", worker)
	}
	p, err := e.evs[worker].PrepareFrom(e.prey[i], start)
	if err != nil {
		sp.Attr("error", true).End()
		e.slotErr[s] = fmt.Errorf("core: prey %d relaxation: %w", i, err)
		return
	}
	e.cache.Fill(s, p)
	sp.End()
}

// gapMatrix returns the generation's paired-evaluation %-gap matrix
// (predator-major, one row of |sample| cells per predator), or nil when
// no observer computes search stats. Quarantined pairings leave their
// cell untouched, so it is prefilled with NaN — the quantile sketch
// ignores NaN, keeping the gap percentiles an honest summary of the
// pairings that ran.
func (e *Engine) gapMatrix() []float64 {
	if e.obs == nil {
		return nil
	}
	n := len(e.predators) * len(e.sample)
	if cap(e.gapMat) < n {
		e.gapMat = make([]float64, n)
	}
	gm := e.gapMat[:n]
	for i := range gm {
		gm[i] = math.NaN()
	}
	return gm
}

// pairing is one (predator, sampled prey) evaluation of the predator
// wave. skip marks a prey whose relaxation faulted this generation.
type pairing struct {
	gap, cost float64
	err       error
	skip      bool
}

// predatorWave scores every predator by its mean %-gap (Eq. 1; the raw
// follower cost under CostFitness) over the sampled prey. The
// generation's predators are compiled into one hash-consed forest, and
// the sampled prey are striped over the workers: each worker scores
// every distinct predator against its prey in one forest sweep into
// its own slab, then runs the greedy for every predator on its row.
// Each pairing's result lands in the pairing matrix, so the serial
// fold below sees the same values at any worker count. Writes are
// per-index disjoint.
func (e *Engine) predatorWave(gm []float64) {
	e.forest.Compile(e.set, e.predators)
	np, m := len(e.predators), e.mk.Bundles()
	par.Striped(len(e.sample), e.workers, e.parMetrics(), func(si, worker int) {
		p := e.cache.At(e.preySlot[e.sample[si]])
		if p == nil { // the prey's relaxation faulted this generation
			for i := range np {
				e.pairs[i*len(e.sample)+si] = pairing{skip: true}
			}
			return
		}
		if e.slabs[worker] == nil {
			e.slabs[worker] = make([]float64, np*m)
		}
		ev, slab := e.evs[worker], e.slabs[worker]
		ev.ScoreForest(p, &e.forest, slab)
		for i := range np {
			c := pairing{}
			if row, err := e.forest.Row(i); err == nil {
				out, _, err := ev.EvalScoresWith(p, slab[row*m:(row+1)*m])
				c = pairing{gap: out.GapPct, cost: out.LLCost, err: err}
			}
			e.pairs[i*len(e.sample)+si] = c
		}
	})
	e.foldPairings(gm)
}

// foldPairings turns the pairing matrix into predator fitness, in
// sample order per predator. A predator is quarantined when it has no
// fitness this generation: its compile or one of its pairings failed
// (predErr; the pairings after a failed one are ignored), or every
// sampled prey was already quarantined. Pairings against quarantined
// prey are skipped; the mean averages the pairings that ran, which
// equals the usual mean when nothing faulted. gm (nil when stats are
// off) receives every counted pairing's gap by pairing index.
func (e *Engine) foldPairings(gm []float64) {
	ns := len(e.sample)
	for i := range e.predators {
		e.predErr[i] = nil
		e.predQuar[i] = true
		if _, err := e.forest.Row(i); err != nil {
			e.predErr[i] = fmt.Errorf("core: predator %d compile: %w", i, err)
			continue
		}
		total := 0.0
		pairs := 0
		for si, c := range e.pairs[i*ns : (i+1)*ns] {
			if c.skip {
				continue
			}
			if c.err != nil {
				e.predErr[i] = fmt.Errorf("core: predator %d evaluation: %w", i, c.err)
				break
			}
			if gm != nil {
				gm[i*ns+si] = c.gap
			}
			if e.cfg.CostFitness {
				total += c.cost // ablation: COBRA-style objective
			} else {
				total += c.gap // paper: Eq. 1
			}
			pairs++
		}
		if e.predErr[i] != nil || pairs == 0 {
			continue
		}
		e.predQuar[i] = false
		e.predFit[i] = total / float64(pairs)
	}
}

// preyWave scores every healthy prey by its revenue under the hunter.
func (e *Engine) preyWave() {
	par.Striped(len(e.prey), e.workers, e.parMetrics(), func(i, worker int) {
		if e.preyErr[i] != nil {
			return // relaxation already quarantined this prey
		}
		out, _, err := e.evs[worker].EvalProgramWith(e.cache.At(e.preySlot[i]), &e.hunter)
		if err != nil {
			e.preyErr[i] = fmt.Errorf("core: prey %d evaluation: %w", i, err)
			return
		}
		if out.Feasible {
			e.preyFit[i] = out.Revenue
		} else {
			e.preyFit[i] = 0
		}
		e.preyGap[i] = out.GapPct
	})
}

// breed replaces both populations with their offspring, recording
// provenance for the lineage ledger when stats are on.
func (e *Engine) breed() {
	newPrey, preyOr := breedPrey(e.r, e.prey, e.preyFit, e.bounds, e.cfg)
	newPred, predOr := breedPredators(e.r, e.set, e.predators, e.predFit, e.cfg)
	// Each child's next relaxation starts from the final basis of its
	// nearer parent (nil when that parent's relaxation failed).
	for c, o := range preyOr {
		e.preyBasis[c] = nil
		if p := e.cache.At(e.preySlot[ga.Parents{P1: o.p1, P2: o.p2}.Nearest(newPrey[c], e.prey)]); p != nil {
			e.preyBasis[c] = p.Rx.Basis
		}
	}
	if e.obs != nil {
		e.prevPreyFit = append(e.prevPreyFit[:0], e.preyFit...)
		e.prevPredFit = append(e.prevPredFit[:0], e.predFit...)
		e.led.advance(preyOr, predOr, e.res.Gens)
		e.preyOrigins, e.predOrigins = preyOr, predOr
	}
	e.prey = newPrey
	e.predators = newPred
}

// firstErr counts the non-nil entries of errs and returns the first.
func firstErr(errs []error) (n int, first error) {
	for _, err := range errs {
		if err != nil {
			if n == 0 {
				first = err
			}
			n++
		}
	}
	return n, first
}

// foldRelax folds the relaxation wave's slot failures into preyErr,
// which carries each prey's quarantine cause across the waves (nil =
// healthy so far). A generation in which not one relaxation survived
// has no fitness signal — continuing would evolve on noise — so it is
// terminal and foldRelax reports !ok.
func (e *Engine) foldRelax(gen int) (firstSlotErr error, ok bool) {
	bad, first := firstErr(e.slotErr)
	if bad == len(e.missing) {
		e.fail(fmt.Errorf("core: generation %d: every relaxation failed: %w", gen, first))
		return first, false
	}
	for i := range e.prey {
		e.preyErr[i] = e.slotErr[e.preySlot[i]]
	}
	return first, true
}

// foldPredators gives every quarantined predator the worst healthy
// fitness (predators minimize), which keeps it out of selection without
// skewing anyone else; the substitution draws no RNG, so faulted runs
// replay deterministically per (Seed, fault pattern). It
// returns the number quarantined, and !ok — terminal — when that is
// every predator.
func (e *Engine) foldPredators(gen int, firstSlotErr error) (quar int, ok bool) {
	worst := math.Inf(-1)
	for i, q := range e.predQuar {
		if q {
			quar++
		} else if e.predFit[i] > worst {
			worst = e.predFit[i]
		}
	}
	if quar == len(e.predators) {
		_, first := firstErr(e.predErr)
		if first == nil {
			first = firstSlotErr
		}
		e.fail(fmt.Errorf("core: generation %d: every predator evaluation failed: %w", gen, first))
		return quar, false
	}
	for i, q := range e.predQuar {
		if q {
			e.predFit[i] = worst
		}
	}
	return quar, true
}

// foldPrey gives every quarantined prey the worst-known fitness:
// revenue is maximized and never negative, so 0 is the floor (shared
// with infeasible follower answers), and a NaN gap keeps the pairing
// out of the gap stats. It returns the number quarantined, and !ok —
// terminal — when that is every prey.
func (e *Engine) foldPrey(gen int) (quar int, ok bool) {
	quar, first := firstErr(e.preyErr)
	if quar == len(e.prey) {
		e.fail(fmt.Errorf("core: generation %d: every prey evaluation failed: %w", gen, first))
		return quar, false
	}
	for i, err := range e.preyErr {
		if err != nil {
			e.preyFit[i] = 0
			e.preyGap[i] = math.NaN()
		}
	}
	return quar, true
}

// archivePredators offers every predator that earned a fitness this
// generation to the GP archive and returns the best of them (the
// hunter) and the number of archive additions. A quarantined predator
// can neither hunt nor enter the archive on its assigned worst value.
func (e *Engine) archivePredators() (best, adds int) {
	best = -1
	for i, t := range e.predators {
		if e.predQuar[i] {
			continue
		}
		if best < 0 || e.predFit[i] < e.predFit[best] {
			best = i
		}
		if e.gpArch.Add(t, e.predFit[i]) {
			adds++
		}
	}
	return best, adds
}

// archivePrey offers every healthy prey to the UL archive and returns
// the number of additions; a quarantined prey gets no archive entry on
// a made-up fitness.
func (e *Engine) archivePrey() (adds int) {
	for i, x := range e.prey {
		if e.preyErr[i] == nil && e.ulArch.Add(x, e.preyFit[i]) {
			adds++
		}
	}
	return adds
}

// genStats snapshots the generation that just finished. The fitness
// arrays still describe the pre-breeding populations at this point
// (breeding builds fresh slices and never writes the fitness arrays).
func (e *Engine) genStats(search *SearchStats) GenStats {
	gs := GenStats{
		Label:      e.cfg.RunLabel,
		Island:     e.island,
		Search:     search,
		Gen:        e.res.Gens,
		Faults:     e.Faults(),
		ULEvals:    e.ulUsed,
		LLEvals:    e.llUsed,
		ULBudget:   e.cfg.ULEvalBudget,
		LLBudget:   e.cfg.LLEvalBudget,
		ULArchive:  e.ulArch.Len(),
		GPArchive:  e.gpArch.Len(),
		EvalNanos:  e.evalNanos,
		BreedNanos: e.breedNanos,
	}
	if be, ok := e.ulArch.Best(); ok {
		gs.BestRevenue = be.Fitness
	}
	if be, ok := e.gpArch.Best(); ok {
		gs.BestGap = be.Fitness
	}
	for s := range e.cache.Len() {
		if p := e.cache.At(s); p != nil {
			gs.LPPivots += p.Rx.Pivots
		}
	}
	sum, sq := 0.0, 0.0
	gs.PreyBest = e.preyFit[0]
	for _, f := range e.preyFit {
		sum += f
		sq += f * f
		if f > gs.PreyBest {
			gs.PreyBest = f
		}
	}
	n := float64(len(e.preyFit))
	gs.PreyMean = sum / n
	if v := sq/n - gs.PreyMean*gs.PreyMean; v > 0 {
		gs.PreyStd = math.Sqrt(v)
	}
	sum = 0.0
	gs.PredBest = e.predFit[0]
	for _, f := range e.predFit {
		sum += f
		if f < gs.PredBest {
			gs.PredBest = f
		}
	}
	gs.PredMean = sum / float64(len(e.predFit))
	return gs
}

// BestPrey returns a copy of the best archived pricing and its revenue.
func (e *Engine) BestPrey() ([]float64, float64, bool) {
	be, ok := e.ulArch.Best()
	if !ok {
		return nil, 0, false
	}
	return append([]float64(nil), be.Item...), be.Fitness, true
}

// BestPredator returns a copy of the best archived heuristic and its
// fitness.
func (e *Engine) BestPredator() (gp.Tree, float64, bool) {
	be, ok := e.gpArch.Best()
	if !ok {
		return gp.Tree{}, 0, false
	}
	return be.Item.Clone(), be.Fitness, true
}

// InjectPrey replaces a random non-elite slot of the prey population
// with a copy of x (island-model migration). The archive is untouched —
// the migrant must earn its place at the next evaluation.
func (e *Engine) InjectPrey(x []float64) error {
	if len(x) != e.mk.Leaders() {
		return errors.New("core: migrant prey has wrong dimension")
	}
	slot := e.cfg.Elites
	if len(e.prey) > e.cfg.Elites+1 {
		slot = e.cfg.Elites + e.r.Intn(len(e.prey)-e.cfg.Elites)
	}
	e.prey[slot] = append([]float64(nil), x...)
	e.preyBasis[slot] = nil
	if e.led != nil {
		e.led.replace(e.led.preyIDs, slot, opMigrant, e.res.Gens)
		if slot < len(e.preyOrigins) {
			e.preyOrigins[slot] = origin{op: opMigrant, p1: -1, p2: -1}
		}
	}
	return nil
}

// InjectPredator replaces a random non-elite slot of the predator
// population with a copy of t.
func (e *Engine) InjectPredator(t gp.Tree) error {
	if err := t.Check(e.set); err != nil {
		return err
	}
	slot := e.cfg.Elites
	if len(e.predators) > e.cfg.Elites+1 {
		slot = e.cfg.Elites + e.r.Intn(len(e.predators)-e.cfg.Elites)
	}
	e.predators[slot] = t.Clone()
	if e.led != nil {
		e.led.replace(e.led.predIDs, slot, opMigrant, e.res.Gens)
		if slot < len(e.predOrigins) {
			e.predOrigins[slot] = origin{op: opMigrant, p1: -1, p2: -1}
		}
	}
	return nil
}

// Result finalizes and returns the run summary. The engine may continue
// stepping afterwards; each call snapshots the current state. Every
// slice in the result is a defensive copy — mutating a returned Result
// can never corrupt the live archives (see TestResultDoesNotAliasArchive).
func (e *Engine) Result() (*Result, error) {
	res := &Result{
		Gens:     e.res.Gens,
		Faults:   e.Faults(),
		ULEvals:  e.ulUsed,
		LLEvals:  e.llUsed,
		Label:    e.cfg.RunLabel,
		Island:   e.island,
		Ancestry: e.led.championAncestry(),
		ULCurve: stats.Series{
			X: append([]float64(nil), e.res.ULCurve.X...),
			Y: append([]float64(nil), e.res.ULCurve.Y...),
		},
		GapCurve: stats.Series{
			X: append([]float64(nil), e.res.GapCurve.X...),
			Y: append([]float64(nil), e.res.GapCurve.Y...),
		},
	}
	res.ULArchive = e.ulArch.Entries()
	for i := range res.ULArchive {
		res.ULArchive[i].Item = append([]float64(nil), res.ULArchive[i].Item...)
	}
	res.GPArchive = e.gpArch.Entries()
	for i := range res.GPArchive {
		res.GPArchive[i].Item = res.GPArchive[i].Item.Clone()
	}
	if be, ok := e.ulArch.Best(); ok {
		res.Best.Price = append([]float64(nil), be.Item...)
		res.Best.Revenue = be.Fitness
	}
	if be, ok := e.gpArch.Best(); ok {
		res.Best.Tree = be.Item.Clone()
		res.Best.TreeStr = be.Item.String(e.set)
		res.Best.Simplified = gp.Simplify(e.set, be.Item).String(e.set)
		res.Best.GapPct = be.Fitness
		if e.cfg.CostFitness {
			// Under the ablation the archive fitness is a raw cost, so
			// re-measure the actual gap of the selected tree on a fresh
			// prey sample (reporting only — budgets are spent). The
			// sample comes from an RNG derived from the seed, NOT the
			// live stream: Result may be called mid-run, and consuming
			// e.r here would perturb every subsequent Step, breaking
			// the "engine may continue stepping afterwards" contract
			// (see TestResultMidRunDoesNotPerturbRun). Each solve
			// starts from the prey's own start basis, so the
			// measurement is a pure function of the current
			// populations and repeated calls agree exactly. The tree
			// is compiled into a program of its own, leaving the
			// hunter alone for the same reason.
			var prog gp.Program
			if err := prog.Compile(e.set, be.Item); err != nil {
				return nil, err
			}
			r := rng.New(e.cfg.Seed).Split()
			sample := r.SampleDistinct(e.cfg.EffectiveSample(), len(e.prey))
			total := 0.0
			for _, s := range sample {
				p, err := e.evs[0].PrepareFrom(e.prey[s], e.preyBasis[s])
				if err != nil {
					return nil, err
				}
				out, _, err := e.evs[0].EvalProgramWith(p, &prog)
				if err != nil {
					return nil, err
				}
				total += out.GapPct
			}
			res.Best.GapPct = total / float64(len(sample))
		}
	}
	return res, nil
}

// Run executes CARBON on the market until either evaluation budget is
// exhausted. A mid-run evaluation failure (Engine.Err) is returned as
// an error instead of panicking, so long batch sweeps survive one bad
// configuration.
func Run(mk *bcpop.Market, cfg Config) (*Result, error) {
	return RunContext(context.Background(), mk, cfg)
}

// RunContext is Run with cooperative cancellation: the context is
// checked between generations, so cancellation (Ctrl-C, a job deadline,
// a server drain) stops the run at the next generation boundary with an
// error satisfying errors.Is(err, ctx.Err()). Cancellation does not
// perturb determinism — a run that is not canceled is bit-identical to
// one launched without a context.
func RunContext(ctx context.Context, mk *bcpop.Market, cfg Config) (*Result, error) {
	e, err := NewEngine(mk, cfg)
	if err != nil {
		return nil, err
	}
	for e.Step() {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: run canceled after generation %d: %w", e.Gens(), cerr)
		}
	}
	if err := e.Err(); err != nil {
		return nil, err
	}
	res, err := e.Result()
	if err != nil {
		return nil, err
	}
	if e.obs != nil {
		e.obs.OnDone(res)
	}
	return res, nil
}
