package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"carbon/internal/bcpop"
	"carbon/internal/cobra"
	"carbon/internal/core"
	"carbon/internal/exp"
	"carbon/internal/orlib"
	"carbon/internal/par"
	"carbon/internal/span"
	"carbon/internal/telemetry"
)

// cellSettings is exp.Quick() on paperClass with Runs runs of each
// algorithm, two at a time, and budgets for sz.Gens CARBON generations.
func cellSettings(seed uint64, sz size) exp.Settings {
	s := exp.Quick()
	s.Classes = []orlib.Class{paperClass}
	s.Runs = sz.Runs
	s.Workers = 2
	s.BaseSeed = seed
	s.ULEvals = s.PopSize * sz.Gens
	s.LLEvals = s.PopSize * s.PreySample * sz.Gens
	return s
}

func hashRuns(h *hasher, runs []exp.RunData) {
	for _, r := range runs {
		h.f(r.GapPct, r.Revenue)
		h.f(r.ULCurve.X...)
		h.f(r.ULCurve.Y...)
		h.f(r.GapCurve.X...)
		h.f(r.GapCurve.Y...)
	}
}

func hashCell(carbon, cobraRuns []exp.RunData) string {
	var h hasher
	hashRuns(&h, carbon)
	hashRuns(&h, cobraRuns)
	return h.sum()
}

// runCell is table-cell: a pass runs sz.Items cells through exp.RunCell,
// each with its own base seed. A traced run also runs every cell a second
// time through the same public calls RunCell makes — core.Run and
// cobra.Run — with a span around each run and the engine instruments
// attached, and requires the two to agree bit for bit.
func runCell(c *runCtx, sz size) error {
	var (
		setups         []time.Duration
		bare, traced   = make([][]float64, sz.Items), make([][]float64, sz.Items)
		hashes         = make([]string, sz.Items)
		gaps, revenues []float64
		carbonMS       []float64
		cobraMS        []float64
		parallelism    []float64
		mallocs, gens  uint64
	)
	reg := telemetry.NewRegistry()
	if c.traced {
		c.regs = []*telemetry.Registry{reg}
	}
	rss, err := c.passes(sz.Items, func(i, pass int) error {
		s := cellSettings(subSeed(c.seed, i), sz)
		// Set-up is what a harness does before RunCell: validate the
		// settings and build the class's market.
		t0 := time.Now()
		if err := s.Validate(); err != nil {
			return err
		}
		if _, err := bcpop.NewMarketFromClass(paperClass, s.InstanceIndex); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		cell, err := exp.RunCell(paperClass, s)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		bare[i] = append(bare[i], d.Seconds())
		mallocs += m1.Mallocs - m0.Mallocs
		gens += uint64(s.Runs * sz.Gens)
		h := hashCell(cell.Carbon, cell.Cobra)
		if pass == 0 {
			hashes[i] = h
			for _, r := range cell.Carbon {
				gaps = append(gaps, r.GapPct)
				revenues = append(revenues, r.Revenue)
			}
		} else {
			c.rec.check(h == hashes[i], "cell %d not reproduced in pass %d", i, pass)
		}
		if c.traced {
			tc, err := c.tracedCell(s, reg)
			if err != nil {
				return err
			}
			traced[i] = append(traced[i], tc.wall.Seconds())
			carbonMS = append(carbonMS, tc.carbonMS...)
			cobraMS = append(cobraMS, tc.cobraMS...)
			parallelism = append(parallelism, (sum(tc.carbonMS)+sum(tc.cobraMS))/ms(tc.wall))
			c.rec.check(tc.hash == hashes[i], "cell %d differs when traced", i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	cellS := itemMedians(bare)
	var cellMS []float64
	for _, v := range cellS {
		cellMS = append(cellMS, 1000*v)
	}
	c.setOutcome(setups, float64(len(cellS))/sum(cellS), cellMS, rss, gaps, revenues)
	var h hasher
	for _, s := range hashes {
		h.s(s)
	}
	c.rec.Det["result_hash"] = h.sum()
	c.rec.Det["gens"] = fmt.Sprint(sz.Items * sz.Runs * sz.Gens)
	if c.traced {
		c.allocsPerGen = float64(mallocs) / float64(gens)
		c.traceOverhead(traced, bare)
		c.rec.set("core.run_ms.p50", median(carbonMS), "ms")
		c.rec.set("cobra.run_ms.p50", median(cobraMS), "ms")
		c.rec.set("exp.run_parallelism", median(parallelism), "runs")
	}
	s := cellSettings(subSeed(c.seed, 0), sz)
	mk, err := bcpop.NewMarketFromClass(paperClass, s.InstanceIndex)
	if err != nil {
		return err
	}
	return c.probe(mk, carbonConfig(s, cellRunSeed(s, 0)))
}

type tracedCellOut struct {
	wall              time.Duration
	carbonMS, cobraMS []float64
	hash              string
}

// cellRunSeed, carbonConfig and cobraConfig restate how exp.RunCell seeds
// and configures run k; the traced path is checked against RunCell's own
// results, so a drift here fails the run instead of going unnoticed.
func cellRunSeed(s exp.Settings, run int) uint64 {
	cl := s.Classes[0]
	return s.BaseSeed + uint64(cl.N)*1009 + uint64(cl.M)*31 + uint64(run)*7919
}

func carbonConfig(s exp.Settings, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize, cfg.LLPopSize = s.PopSize, s.PopSize
	cfg.ULArchiveSize, cfg.LLArchiveSize = s.PopSize, s.PopSize
	cfg.ULEvalBudget, cfg.LLEvalBudget = s.ULEvals, s.LLEvals
	cfg.PreySample = s.PreySample
	cfg.Workers = 1
	return cfg
}

func cobraConfig(s exp.Settings, seed uint64) cobra.Config {
	cfg := cobra.DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize, cfg.LLPopSize = s.PopSize, s.PopSize
	cfg.ULArchiveSize, cfg.LLArchiveSize = s.PopSize, s.PopSize
	cfg.ULEvalBudget, cfg.LLEvalBudget = s.ULEvals, s.LLEvals
	cfg.CoevPairs = max(2, s.PopSize/5)
	cfg.ArchiveInject = max(1, s.PopSize/10)
	cfg.Workers = 1
	return cfg
}

func (c *runCtx) tracedCell(s exp.Settings, reg *telemetry.Registry) (*tracedCellOut, error) {
	cellSpan := c.tr.Start(c.root.Context(), "cell").Kind(span.KindCompute).Attr("base_seed", s.BaseSeed)
	defer cellSpan.End()
	mk, err := bcpop.NewMarketFromClass(s.Classes[0], s.InstanceIndex)
	if err != nil {
		return nil, err
	}
	carbon := make([]exp.RunData, s.Runs)
	cobraRuns := make([]exp.RunData, s.Runs)
	durs := make([]time.Duration, 2*s.Runs)
	var (
		mu       sync.Mutex
		firstErr error
	)
	t0 := time.Now()
	par.ForEach(2*s.Runs, s.Workers, func(i int) {
		run := i / 2
		seed := cellRunSeed(s, run)
		t := time.Now()
		var err error
		if i%2 == 0 {
			sp := c.tr.Start(cellSpan.Context(), "core.Run").Kind(span.KindCompute).Attr("run", run)
			cfg := carbonConfig(s, seed)
			cfg.Metrics, cfg.Spans, cfg.SpanParent = reg, c.tr, sp.Context()
			var res *core.Result
			if res, err = core.Run(mk, cfg); err == nil {
				carbon[run] = exp.RunData{GapPct: res.Best.GapPct, Revenue: res.Best.Revenue,
					ULCurve: res.ULCurve, GapCurve: res.GapCurve}
			}
			sp.End()
		} else {
			sp := c.tr.Start(cellSpan.Context(), "cobra.Run").Kind(span.KindCompute).Attr("run", run)
			var res *cobra.Result
			if res, err = cobra.Run(mk, cobraConfig(s, seed)); err == nil {
				cobraRuns[run] = exp.RunData{GapPct: res.BestGapPct, Revenue: res.BestRevenue,
					ULCurve: res.ULCurve, GapCurve: res.GapCurve}
			}
			sp.End()
		}
		durs[i] = time.Since(t)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	out := &tracedCellOut{wall: time.Since(t0)}
	if firstErr != nil {
		return nil, firstErr
	}
	for i, d := range durs {
		if i%2 == 0 {
			out.carbonMS = append(out.carbonMS, ms(d))
		} else {
			out.cobraMS = append(out.cobraMS, ms(d))
		}
	}
	out.hash = hashCell(carbon, cobraRuns)
	return out, nil
}
