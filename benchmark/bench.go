package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"carbon/internal/orlib"
	"carbon/internal/span"
	"carbon/internal/telemetry"
	"carbon/internal/tracestat"
)

// size scales a workload. Full sizes are pinned in the workload table;
// benchmark_test.go passes reduced ones.
type size struct {
	Items int // episodes, cells or distinct job specs in one pass
	Gens  int // generations per episode, run or job
	Runs  int // table-cell: runs of each algorithm per cell
}

type workload struct {
	name    string
	workers int // pinned evaluation parallelism, stamped into env
	full    size
	run     func(c *runCtx, sz size) error
}

// The workloads are pinned (README.md gives the reason for each):
// changing any of them changes the benchmark, which is its own change with
// a fresh baseline. Sizes are chosen so a pass fits the measurement time
// on a 2-core machine and so the seed-to-seed spread of every end-to-end
// metric stays well inside its bound: each pass averages many short,
// independently seeded items, because GP tree growth makes one long
// run's cost vary several-fold between seeds.
var workloadList = []workload{
	{
		name:    "paper-gen",
		workers: 2,
		full:    size{Items: 12, Gens: 2},
		run:     engineWorkload{class: paperClass, initDepth: [2]int{1, 4}}.run,
	},
	{
		name:    "small-gen",
		workers: 2,
		full:    size{Items: 80, Gens: 3},
		run:     engineWorkload{class: orlib.Class{N: 100, M: 5}, initDepth: [2]int{4, 7}}.run,
	},
	{
		name:    "table-cell",
		workers: 2,
		full:    size{Items: 6, Gens: 5, Runs: 4},
		run:     runCell,
	},
	{
		name:    "service",
		workers: 1,
		full:    size{Items: 128, Gens: 10},
		run:     runService,
	},
}

var workloads = func() map[string]workload {
	m := map[string]workload{}
	for _, w := range workloadList {
		m[w.name] = w
	}
	return m
}()

type options struct {
	seed     uint64
	budget   time.Duration
	traced   bool
	traceDir string
	workDir  string // scratch space for spools, removed afterwards
}

// runCtx is one run in progress. The tracing fields are nil when the run
// is untraced, which turns every span call into a no-op.
type runCtx struct {
	options
	rec  *record
	col  *span.Collector
	tr   *span.Tracer
	root *span.Span

	// Per-layer inputs gathered by the workload in a traced run: the
	// registries its engines reported into, spans the system wrote to
	// files, and process allocations per engine generation.
	regs         []*telemetry.Registry
	fileSpans    []span.Record
	allocsPerGen float64
}

func run(w workload, o options, sz size) (*record, error) {
	c := &runCtx{options: o, rec: &record{
		Workload: w.name, Seed: o.seed, Traced: o.traced,
		Env: environment(w.workers), Det: map[string]string{}, Metrics: map[string]metric{},
	}}
	if o.traced {
		c.col = &span.Collector{}
		c.tr = span.New(c.col)
		c.root = c.tr.Start(span.Context{}, "bench."+w.name).Kind(span.KindCompute)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	err := w.run(c, sz)
	c.root.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.traced {
		if err := c.finishTrace(); err != nil {
			return nil, fmt.Errorf("%s: trace: %w", w.name, err)
		}
	}
	return c.rec, nil
}

// passes calls item(i, pass) for i = 0..n-1, pass after pass, until one
// full pass has run and the measurement budget is spent. Only the first
// pass produces the deterministic outputs; later passes add timing
// samples and must reproduce the first bit for bit. It returns the peak
// resident set at the end of the first pass, which is the same amount of
// work however fast the machine is.
func (c *runCtx) passes(n int, item func(i, pass int) error) (rss float64, err error) {
	start := time.Now()
	for pass := 0; ; pass++ {
		for i := 0; i < n; i++ {
			if pass > 0 && time.Since(start) >= c.budget {
				return rss, nil
			}
			if err := item(i, pass); err != nil {
				return 0, err
			}
		}
		if pass == 0 {
			rss = maxRSSMiB()
		}
	}
}

// subSeed derives the i-th item seed of a run from its --seed
// (splitmix64), so one seed fixes every input of the run.
func subSeed(seed uint64, i int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x >> 32
}

// setOutcome records the end-to-end metrics every workload shares, and
// the latency sample count; the quality metrics are means over the first
// pass's items.
func (c *runCtx) setOutcome(setups []time.Duration, throughput float64, latencyMS []float64, rss float64, gaps, revenues []float64) {
	var s []float64
	for _, d := range setups {
		s = append(s, d.Seconds())
	}
	c.rec.set("setup_s", median(s), "s")
	c.rec.set("throughput", throughput, "1/s")
	c.rec.set("latency_ms.p50", median(latencyMS), "ms")
	c.rec.set("latency_samples", float64(len(latencyMS)), "count")
	c.rec.set("max_rss_mb", rss, "MiB")
	c.rec.set("best_gap_pct", mean(gaps), "%")
	c.rec.set("best_revenue", mean(revenues), "revenue")
}

// itemMedians reduces per-item samples to each item's median.
func itemMedians(samples [][]float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = median(s)
	}
	return out
}

// traceOverhead compares the instrumented and bare timings of the same
// items (per-item medians, summed).
func (c *runCtx) traceOverhead(traced, bare [][]float64) {
	c.rec.set("trace_overhead_pct", 100*(sum(itemMedians(traced))/sum(itemMedians(bare))-1), "%")
}

// finishTrace derives the engine-layer metrics from the spans and
// registries the run collected, attributes self time per span name, and
// writes spans.jsonl and layers.json when a trace directory was given.
func (c *runCtx) finishTrace() error {
	recs := append(c.col.Records(), c.fileSpans...)
	var gens []float64
	for _, r := range recs {
		if r.Name == "gen" && r.EndNS != 0 {
			gens = append(gens, ms(r.Duration()))
		}
	}
	total := sum(gens)
	c.rec.set("core.step_ms.p50", median(gens), "ms")
	shares := 0.0
	for _, w := range [][2]string{
		{"core.relax_share", "core.relax_precompute"},
		{"core.pred_eval_share", "core.predator_eval"},
		{"core.prey_eval_share", "core.prey_eval"},
		{"core.breed_share", "core.breed"},
	} {
		v := ms(c.timerTotal(w[1])) / total
		shares += v
		c.rec.set(w[0], v, "ratio")
	}
	c.rec.set("core.coord_share", 1-shares, "ratio")
	c.rec.set("core.allocs_per_gen", c.allocsPerGen, "count")
	c.rec.set("par.eval_occupancy", float64(c.timerTotal("par.eval.busy"))/float64(c.timerTotal("par.eval.wall")), "workers")
	c.rec.set("bcpop.evals_per_gen", float64(c.counter("bcpop.tree_evals"))/float64(c.counter("core.generations")), "count")

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	tree, err := tracestat.LoadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	c.rec.check(len(tree.Orphans) == 0, "%d orphaned spans", len(tree.Orphans))
	b := tree.Breakdown()
	for name, d := range b.ByName {
		c.rec.set("span."+name+".self_ms", ms(d), "ms")
	}
	if c.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.traceDir, "spans.jsonl"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(c.rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.traceDir, "layers.json"), append(layers, '\n'), 0o644)
}

func (c *runCtx) timerTotal(name string) time.Duration {
	var t time.Duration
	for _, r := range c.regs {
		t += r.Timer(name).Total()
	}
	return t
}

func (c *runCtx) counter(name string) int64 {
	var n int64
	for _, r := range c.regs {
		n += r.Counter(name).Load()
	}
	return n
}
