package bcpop

import (
	"errors"
	"math"
	"sync"
	"testing"

	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/lp"
	"carbon/internal/rng"
	"carbon/internal/telemetry"
)

func TestKeyExactBitsIdentity(t *testing.T) {
	a := []float64{1.5, 0, 3.25}
	b := []float64{1.5, 0, 3.25}
	if Key(a) != Key(b) {
		t.Fatal("bit-identical vectors got different keys")
	}
	c := append([]float64(nil), a...)
	c[2] = math.Nextafter(c[2], 4) // one ulp off
	if Key(a) == Key(c) {
		t.Fatal("one-ulp difference collided")
	}
	if Key([]float64{0}) == Key([]float64{math.Copysign(0, -1)}) {
		t.Fatal("+0 and -0 must not collide (distinct bits)")
	}
	if Key(nil) != "" || Key([]float64{}) != "" {
		t.Fatal("empty vector key must be empty")
	}
}

// TestPreparedSurvivesLaterSolves: a Prepared context must stay valid
// after the producing evaluator solves other instances — it owns its
// costs, duals and x̄, aliasing no evaluator scratch. Prepare keeps the
// solver's relaxation without copying it, so its bits are checked
// directly as well as through a re-evaluation.
func TestPreparedSurvivesLaterSolves(t *testing.T) {
	mk := testMarket(t, 30, 5, 3)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	priceA := mk.PriceBounds().RandomVector(r)
	priceB := mk.PriceBounds().RandomVector(r)
	prog, err := gp.Compile(set, set.Ramped(r, 2, 3))
	if err != nil {
		t.Fatal(err)
	}

	pA, err := ev.Prepare(priceA)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := ev.EvalProgramWith(pA, prog)
	if err != nil {
		t.Fatal(err)
	}
	rx := *pA.Rx
	rx.Dual = append([]float64(nil), pA.Rx.Dual...)
	rx.XBar = append([]float64(nil), pA.Rx.XBar...)
	// Hammer the evaluator's scratch with other work: a cold solve, a
	// solve warm-started from pA's own basis, and an evaluation.
	if _, err := ev.Prepare(priceB); err != nil {
		t.Fatal(err)
	}
	pB, err := ev.PrepareFrom(priceB, pA.Rx.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.EvalProgramWith(pB, prog); err != nil {
		t.Fatal(err)
	}
	after, _, err := ev.EvalProgramWith(pA, prog)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("prepared context was corrupted by later solves: %+v vs %+v", before, after)
	}
	same := math.Float64bits(pA.Rx.LB) == math.Float64bits(rx.LB) &&
		len(pA.Rx.Dual) == len(rx.Dual) && len(pA.Rx.XBar) == len(rx.XBar)
	for i := 0; same && i < len(rx.Dual); i++ {
		same = math.Float64bits(pA.Rx.Dual[i]) == math.Float64bits(rx.Dual[i])
	}
	for i := 0; same && i < len(rx.XBar); i++ {
		same = math.Float64bits(pA.Rx.XBar[i]) == math.Float64bits(rx.XBar[i])
	}
	if !same {
		t.Fatal("prepared relaxation changed under later solves")
	}
}

// TestPreparedConcurrentReaders: one Prepared context and one compiled
// program, many workers — the -race gate for the engine's fan-out of
// cached contexts and the shared hunter across evaluation workers.
func TestPreparedConcurrentReaders(t *testing.T) {
	mk := testMarket(t, 30, 5, 3)
	set := covering.TableISet()
	ev0, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	price := mk.PriceBounds().RandomVector(rng.New(2))
	prog, err := gp.Compile(set, set.Ramped(rng.New(3), 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ev0.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := ev0.EvalProgramWith(p, prog)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	results := make([]Result, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		ev, err := NewEvaluator(mk, set)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, ev *Evaluator) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				out, _, err := ev.EvalProgramWith(p, prog)
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = out
			}
		}(w, ev)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if results[w] != ref {
			t.Fatalf("worker %d diverged: %+v vs %+v", w, results[w], ref)
		}
	}
}

func TestCacheSlotLifecycle(t *testing.T) {
	c := NewCache()
	a := []float64{1, 2}
	b := []float64{3, 4}

	sa, fresh := c.Slot(a)
	if !fresh || sa != 0 {
		t.Fatalf("first Slot = (%d, %v), want (0, true)", sa, fresh)
	}
	if s, fresh := c.Slot(append([]float64(nil), a...)); fresh || s != sa {
		t.Fatalf("duplicate Slot = (%d, %v), want (%d, false)", s, fresh, sa)
	}
	sb, fresh := c.Slot(b)
	if !fresh || sb != 1 {
		t.Fatalf("second Slot = (%d, %v), want (1, true)", sb, fresh)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.At(sa) != nil {
		t.Fatal("unfilled slot must read nil")
	}
	p := &Prepared{Price: a}
	c.Fill(sa, p)
	if c.At(sa) != p {
		t.Fatal("Fill/At round trip failed")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	if s, fresh := c.Slot(a); !fresh || s != 0 {
		t.Fatalf("post-Reset Slot = (%d, %v), want (0, true)", s, fresh)
	}
}

// TestCacheCounters pins the metrics semantics of the cache layer:
// every Prepare is one real solve (lp_solves and cache_misses), every
// EvalProgramWith is one served evaluation (cache_hits, tree_evals, no
// solve).
func TestCacheCounters(t *testing.T) {
	mk := testMarket(t, 30, 5, 3)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ev.Metrics = NewEvalMetrics(reg)
	r := rng.New(5)
	price := mk.PriceBounds().RandomVector(r)
	prog, err := gp.Compile(set, set.Ramped(r, 1, 3))
	if err != nil {
		t.Fatal(err)
	}

	p, err := ev.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := ev.EvalProgramWith(p, prog); err != nil {
			t.Fatal(err)
		}
	}
	read := func(name string) int64 { return reg.Counter(name).Load() }
	if got := read("bcpop.lp_solves"); got != 1 {
		t.Fatalf("lp_solves = %d, want 1 (one Prepare)", got)
	}
	if got := read("bcpop.cache_misses"); got != 1 {
		t.Fatalf("cache_misses = %d, want 1", got)
	}
	if got := read("bcpop.cache_hits"); got != 3 {
		t.Fatalf("cache_hits = %d, want 3 (one per cached evaluation)", got)
	}
	if got := read("bcpop.tree_evals"); got != 3 {
		t.Fatalf("tree_evals = %d, want 3", got)
	}
	if ev.Evals != 3 {
		t.Fatalf("Evals = %d, want 3 (Prepare is not an LL evaluation)", ev.Evals)
	}
}

// benchPrices returns n random price vectors for rotating-solve
// benchmarks, mimicking a generation's stream of distinct genotypes.
func benchPrices(b *testing.B, mk *Market, n int) [][]float64 {
	r := rng.New(7)
	out := make([][]float64, n)
	for i := range out {
		out[i] = mk.PriceBounds().RandomVector(r)
	}
	return out
}

// BenchmarkPrepare prices the cache's cost side on a cold start: one
// solve per distinct genotype plus the context copies.
func BenchmarkPrepare(b *testing.B) {
	mk := testMarket(b, 500, 30, 50)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		b.Fatal(err)
	}
	prices := benchPrices(b, mk, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Prepare(prices[i%len(prices)]); err != nil {
			b.Fatal(err)
		}
	}
}

// The three benchmarks below rotate through 16 distinct genotypes and
// justify starting each solve from the parent's basis: cold, from the
// basis of an unrelated genotype (what a warm chain across a population
// gives), and from the basis of a parent one mutation away.
func BenchmarkRelaxColdRotating(b *testing.B) {
	benchRelaxFrom(b, func(ev *Evaluator, prices [][]float64, i int) (*lp.Basis, []float64) {
		return nil, prices[i%len(prices)]
	})
}

func BenchmarkRelaxWarmRotating(b *testing.B) {
	benchRelaxFrom(b, func(ev *Evaluator, prices [][]float64, i int) (*lp.Basis, []float64) {
		p, err := ev.Prepare(prices[(i+1)%len(prices)])
		if err != nil {
			b.Fatal(err)
		}
		return p.Rx.Basis, prices[i%len(prices)]
	})
}

func BenchmarkRelaxFromParent(b *testing.B) {
	benchRelaxFrom(b, func(ev *Evaluator, prices [][]float64, i int) (*lp.Basis, []float64) {
		parent := prices[i%len(prices)]
		p, err := ev.Prepare(parent)
		if err != nil {
			b.Fatal(err)
		}
		child := append([]float64(nil), parent...)
		child[i%len(child)] *= 0.9
		return p.Rx.Basis, child
	})
}

// benchRelaxFrom times only the PrepareFrom (the solve, plus copying
// the induced costs) from the start basis and price that setup returns
// for iteration i.
func benchRelaxFrom(b *testing.B, setup func(ev *Evaluator, prices [][]float64, i int) (*lp.Basis, []float64)) {
	mk := testMarket(b, 500, 30, 50)
	ev, err := NewEvaluator(mk, covering.TableISet())
	if err != nil {
		b.Fatal(err)
	}
	prices := benchPrices(b, mk, 16)
	pivots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		start, price := setup(ev, prices, i)
		b.StartTimer()
		p, err := ev.PrepareFrom(price, start)
		if err != nil {
			b.Fatal(err)
		}
		pivots += p.Rx.Pivots
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

// TestUnpreparedSlotTypedError drives the fault-injected path that used
// to nil-deref: an LP fault quarantines Prepare, the slot stays empty,
// and every reader of that slot must fail with ErrNotPrepared — typed,
// catchable, and panic-free — rather than crash inside the scorer.
func TestUnpreparedSlotTypedError(t *testing.T) {
	mk := testMarket(t, 30, 5, 3)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	price := mk.PriceBounds().RandomVector(r)
	tree := set.Ramped(r, 1, 3)

	// Fault-injected Prepare: the solve fails, so the cache slot
	// allocated for this prey is never filled.
	c := NewCache()
	slot, fresh := c.Slot(price)
	if !fresh {
		t.Fatal("first slot not fresh")
	}
	ev.SetLPFault(func() error { return errors.New("injected LP outage") })
	if _, err := ev.Prepare(price); err == nil {
		t.Fatal("fault-injected Prepare succeeded")
	}
	ev.SetLPFault(nil)

	// Cache.Get reports the unfilled slot with the typed error; At keeps
	// its historical nil-return contract for callers that check.
	if p, err := c.Get(slot); !errors.Is(err, ErrNotPrepared) || p != nil {
		t.Fatalf("Get on unfilled slot: p=%v err=%v, want ErrNotPrepared", p, err)
	}
	if _, err := c.Get(slot + 1); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("Get out of range: err=%v, want ErrNotPrepared", err)
	}
	if _, err := c.Get(-1); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("Get(-1): err=%v, want ErrNotPrepared", err)
	}
	if c.At(slot) != nil {
		t.Fatal("At on unfilled slot must stay nil")
	}

	// Every evaluation entry point must reject the nil context instead
	// of dereferencing it.
	prog, err := gp.Compile(set, tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.EvalProgramWith(nil, prog); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("EvalProgramWith(nil): err=%v, want ErrNotPrepared", err)
	}
	if _, _, err := ev.EvalScoresWith(nil, make([]float64, mk.Bundles())); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("EvalScoresWith(nil): err=%v, want ErrNotPrepared", err)
	}

	// After the outage clears, the same slot can be filled and read.
	p, err := ev.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	c.Fill(slot, p)
	got, err := c.Get(slot)
	if err != nil || got != p {
		t.Fatalf("Get after Fill: p=%v err=%v", got, err)
	}
	if _, _, err := ev.EvalProgramWith(got, prog); err != nil {
		t.Fatalf("recovered evaluation failed: %v", err)
	}
}
