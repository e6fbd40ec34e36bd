// Package par provides the parallel-execution primitives used across the
// repository: bounded worker pools and a parallel for over index ranges.
//
// The evolutionary loops in internal/core and internal/cobra evaluate
// whole populations per generation, and the experiment harness in
// internal/exp fans out independent runs; both express their parallelism
// through this package so that concurrency policy (worker count, panic
// propagation) lives in one place.
//
// Determinism contract: callers must not share rng state across work
// items. ForEach guarantees that item i is processed exactly once and
// that all writes made by workers happen-before ForEach returns, but the
// *order* of processing is unspecified. Deterministic algorithms
// therefore pre-split their generators per item (see rng.Rand.Split).
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"carbon/internal/telemetry"
)

// Workers returns the effective worker count for a requested value:
// n <= 0 selects GOMAXPROCS, anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n) using at most workers
// goroutines (Workers(workers) resolves the count). It blocks until all
// items complete. A panic in any fn is captured and re-raised on the
// calling goroutine, wrapped with the item index, after all other
// workers drain.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
		mu   sync.Mutex
		perr *panicErr
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if !safeCall(i, fn, &mu, &perr) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if perr != nil {
		panic(perr)
	}
}

// WaveMetrics instruments ForEachTimed waves: dispatch volume, the wall
// time of each wave and the busy time of each work item. Occupancy()
// derives mean worker utilization from them — the "are my workers
// actually busy?" number for sizing Config.Workers.
type WaveMetrics struct {
	Waves *telemetry.Counter // completed waves
	Items *telemetry.Counter // work items dispatched
	Wall  *telemetry.Timer   // wall time per wave
	Busy  *telemetry.Timer   // busy time per work item
}

// NewWaveMetrics registers the wave instruments under prefix in reg
// (prefix.waves, prefix.items, prefix.wall, prefix.busy). A nil
// registry yields nil — ForEachTimed treats that as "off".
func NewWaveMetrics(reg *telemetry.Registry, prefix string) *WaveMetrics {
	if reg == nil {
		return nil
	}
	return &WaveMetrics{
		Waves: reg.Counter(prefix + ".waves"),
		Items: reg.Counter(prefix + ".items"),
		Wall:  reg.Timer(prefix + ".wall"),
		Busy:  reg.Timer(prefix + ".busy"),
	}
}

// Occupancy reports the mean number of busy workers over the recorded
// wall time (total busy time / total wall time). With w workers, w is
// perfect parallel efficiency; values near 1 mean the waves ran
// effectively sequentially.
func (m *WaveMetrics) Occupancy() float64 {
	if m == nil {
		return 0
	}
	wall := m.Wall.Total()
	if wall <= 0 {
		return 0
	}
	return float64(m.Busy.Total()) / float64(wall)
}

// ForEachTimed is ForEach plus per-wave instrumentation. A nil m takes
// the identical zero-overhead path as plain ForEach — no clock reads,
// no allocation — which is how disabled telemetry stays free on the
// evaluation hot path.
func ForEachTimed(n, workers int, m *WaveMetrics, fn func(i int)) {
	if m == nil {
		ForEach(n, workers, fn)
		return
	}
	start := time.Now()
	ForEach(n, workers, func(i int) {
		t0 := time.Now()
		fn(i)
		m.Busy.Observe(time.Since(t0))
	})
	m.Wall.Observe(time.Since(start))
	m.Waves.Inc()
	m.Items.Add(int64(n))
}

// Striped runs fn over [0,n) in one contiguous stripe per worker, so
// each stripe can own per-worker scratch (an evaluator, a VM): fn(i, w)
// sees every index of stripe w in ascending order.
// Results land by index, so the outcome is deterministic regardless of
// scheduling. workers must already be resolved (see Workers); m (nil =
// off) times the wave as ForEachTimed does.
func Striped(n, workers int, m *WaveMetrics, fn func(i, worker int)) {
	workers = min(workers, n)
	ForEachTimed(workers, workers, m, func(w int) {
		lo, hi := n*w/workers, n*(w+1)/workers
		for i := lo; i < hi; i++ {
			fn(i, w)
		}
	})
}

// panicErr carries a worker panic back to the caller.
type panicErr struct {
	item  int
	value any
}

func (p *panicErr) Error() string {
	return fmt.Sprintf("par: panic processing item %d: %v", p.item, p.value)
}

// safeCall runs fn(i), converting a panic into a stored panicErr.
// It returns false when a panic (from this or another worker) means the
// worker should stop early.
func safeCall(i int, fn func(int), mu *sync.Mutex, perr **panicErr) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			mu.Lock()
			if *perr == nil {
				*perr = &panicErr{item: i, value: r}
			}
			mu.Unlock()
			ok = false
		}
	}()
	mu.Lock()
	stop := *perr != nil
	mu.Unlock()
	if stop {
		return false
	}
	fn(i)
	return true
}

// Pool is a reusable fixed-size worker pool for repeated waves of tasks
// (e.g. one wave per evolutionary generation). Submit enqueues work;
// Wait blocks until every task submitted since the last Wait has
// finished. A Pool is cheaper than spawning goroutines per generation
// when generations are short.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
	once  sync.Once
}

// NewPool starts a pool with Workers(workers) goroutines.
func NewPool(workers int) *Pool {
	w := Workers(workers)
	p := &Pool{tasks: make(chan func(), 4*w)}
	for i := 0; i < w; i++ {
		go func() {
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// Submit enqueues fn for execution. It must not be called concurrently
// with Close.
func (p *Pool) Submit(fn func()) {
	p.wg.Add(1)
	p.tasks <- func() {
		defer p.wg.Done()
		fn()
	}
}

// SubmitLabeled is Submit with pprof labels (key/value pairs) applied
// for the duration of the task. Pool goroutines are long-lived, so
// labels must wrap each task rather than the goroutine: a label set at
// pool construction would outlive the task it described and mislabel
// every later one. Goroutines the task itself spawns (ForEach workers,
// engine waves) inherit the labels, which is what makes a CPU profile
// attributable per job.
func (p *Pool) SubmitLabeled(fn func(), kv ...string) {
	p.wg.Add(1)
	p.tasks <- func() {
		defer p.wg.Done()
		pprof.Do(context.Background(), pprof.Labels(kv...),
			func(context.Context) { fn() })
	}
}

// Wait blocks until all submitted tasks have completed.
func (p *Pool) Wait() { p.wg.Wait() }

// Close shuts the pool down after draining outstanding tasks. The pool
// must not be used afterwards.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.wg.Wait()
		close(p.tasks)
	})
}
