package main

import (
	"fmt"
	"runtime"
	"time"

	"carbon/internal/bcpop"
	"carbon/internal/core"
	"carbon/internal/orlib"
	"carbon/internal/span"
	"carbon/internal/telemetry"
)

var paperClass = orlib.Class{N: 500, M: 30}

// engineWorkload is paper-gen or small-gen.
type engineWorkload struct {
	class orlib.Class
	// initDepth is the ramped half-and-half depth range of the initial
	// predators. small-gen starts from the larger trees a long run grows
	// into, so its short episodes are evaluation-bound the way a long
	// run's later generations are, without the seed-to-seed spread of
	// bloat that makes long runs unusable as timing samples.
	initDepth [2]int
}

// config is the Table II configuration with Workers pinned (the
// determinism contract is per (Seed, Workers)) and budgets that stop the
// engine after exactly gens generations.
func (w engineWorkload) config(seed uint64, gens int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.InitDepthMin, cfg.InitDepthMax = w.initDepth[0], w.initDepth[1]
	cfg.Workers = 2
	cfg.ULEvalBudget = cfg.ULPopSize * gens
	cfg.LLEvalBudget = cfg.LLPopSize * cfg.EffectiveSample() * gens
	return cfg
}

// episode is one engine run from a fresh market and engine.
type episode struct {
	setup   time.Duration
	steps   []time.Duration
	mallocs uint64
	res     *core.Result
}

func (ep *episode) wall() time.Duration {
	var t time.Duration
	for _, d := range ep.steps {
		t += d
	}
	return t
}

// runEpisode builds the market and engine and steps it until its budget
// is spent, timing each Step. With reg non-nil the engine reports into
// the registry and emits generation spans under an "episode" span.
func (c *runCtx) runEpisode(class orlib.Class, cfg core.Config, reg *telemetry.Registry) (*episode, error) {
	runtime.GC() // every episode starts from a collected heap
	ep := &episode{}
	t0 := time.Now()
	var sp *span.Span
	if reg != nil {
		sp = c.tr.Start(c.root.Context(), "episode").Kind(span.KindCompute).Attr("seed", cfg.Seed)
		defer sp.End()
		cfg.Metrics, cfg.Spans, cfg.SpanParent = reg, c.tr, sp.Context()
	}
	mk, err := bcpop.NewMarketFromClass(class, 0)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(mk, cfg)
	if err != nil {
		return nil, err
	}
	ep.setup = time.Since(t0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for {
		t := time.Now()
		ok := e.Step()
		d := time.Since(t)
		if !ok {
			break
		}
		ep.steps = append(ep.steps, d)
	}
	runtime.ReadMemStats(&m1)
	ep.mallocs = m1.Mallocs - m0.Mallocs
	want := cfg.ULEvalBudget / cfg.ULPopSize
	c.rec.check(e.Err() == nil && len(ep.steps) == want, "seed %d: %d of %d steps succeeded: %v", cfg.Seed, len(ep.steps), want, e.Err())
	if ep.res, err = e.Result(); err != nil {
		return nil, err
	}
	return ep, nil
}

func hashResult(h *hasher, res *core.Result) {
	h.f(res.Best.Price...)
	h.f(res.Best.Revenue, res.Best.GapPct)
	h.s(res.Best.TreeStr)
	h.i(res.Gens, res.ULEvals, res.LLEvals)
}

// run steps sz.Items engines per pass, each seeded from the run seed,
// for sz.Gens generations.
func (w engineWorkload) run(c *runCtx, sz size) error {
	var (
		setups         []time.Duration
		steps          []float64
		bare, traced   = make([][]float64, sz.Items), make([][]float64, sz.Items) // ms per episode
		hashes         = make([]string, sz.Items)
		gaps, revenues []float64
		mallocs, gens  uint64
		reg            *telemetry.Registry
		passGens       float64
	)
	if c.traced {
		reg = telemetry.NewRegistry()
		c.regs = []*telemetry.Registry{reg}
	}
	rss, err := c.passes(sz.Items, func(i, pass int) error {
		cfg := w.config(subSeed(c.seed, i), sz.Gens)
		ep, err := c.runEpisode(w.class, cfg, nil)
		if err != nil {
			return err
		}
		setups = append(setups, ep.setup)
		bare[i] = append(bare[i], ms(ep.wall()))
		for _, d := range ep.steps {
			steps = append(steps, ms(d))
		}
		mallocs += ep.mallocs
		gens += uint64(len(ep.steps))
		var h hasher
		hashResult(&h, ep.res)
		if pass == 0 {
			hashes[i] = h.sum()
			gaps = append(gaps, ep.res.Best.GapPct)
			revenues = append(revenues, ep.res.Best.Revenue)
			passGens += float64(len(ep.steps))
		} else {
			c.rec.check(hashes[i] == h.sum(), "episode %d not reproduced in pass %d", i, pass)
		}
		if c.traced {
			tep, err := c.runEpisode(w.class, cfg, reg)
			if err != nil {
				return err
			}
			traced[i] = append(traced[i], ms(tep.wall()))
			var th hasher
			hashResult(&th, tep.res)
			c.rec.check(th.sum() == hashes[i], "episode %d differs when traced", i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.setOutcome(setups, passGens/(sum(itemMedians(bare))/1000), steps, rss, gaps, revenues)
	var h hasher
	for _, s := range hashes {
		h.s(s)
	}
	c.rec.Det["result_hash"] = h.sum()
	c.rec.Det["gens"] = fmt.Sprint(passGens)
	if c.traced {
		c.allocsPerGen = float64(mallocs) / float64(gens)
		c.traceOverhead(traced, bare)
	}
	mk, err := bcpop.NewMarketFromClass(w.class, 0)
	if err != nil {
		return err
	}
	return c.probe(mk, w.config(subSeed(c.seed, 0), sz.Gens))
}
