package archive

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"carbon/internal/rng"
)

func TestOrderingMinimize(t *testing.T) {
	a := New[string](3, true, nil, nil)
	a.Add("c", 3)
	a.Add("a", 1)
	a.Add("b", 2)
	got := a.Entries()
	want := []float64{1, 2, 3}
	for i, e := range got {
		if e.Fitness != want[i] {
			t.Fatalf("order %v", got)
		}
	}
	best, ok := a.Best()
	if !ok || best.Item != "a" {
		t.Fatalf("Best = %+v", best)
	}
}

func TestOrderingMaximize(t *testing.T) {
	a := New[int](3, false, nil, nil)
	a.Add(1, 1)
	a.Add(3, 3)
	a.Add(2, 2)
	if best, _ := a.Best(); best.Fitness != 3 {
		t.Fatalf("max archive best = %v", best.Fitness)
	}
}

func TestCapacityEviction(t *testing.T) {
	a := New[int](2, true, nil, nil)
	if !a.Add(1, 10) || !a.Add(2, 20) {
		t.Fatal("initial adds rejected")
	}
	if a.Add(3, 30) {
		t.Fatal("worse-than-worst accepted at capacity")
	}
	if !a.Add(4, 5) {
		t.Fatal("better item rejected")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	es := a.Entries()
	if es[0].Fitness != 5 || es[1].Fitness != 10 {
		t.Fatalf("entries after eviction: %v", es)
	}
}

func TestEqualFitnessAtCapacityRejected(t *testing.T) {
	a := New[int](1, true, nil, nil)
	a.Add(1, 10)
	if a.Add(2, 10) {
		t.Fatal("equal fitness should not evict")
	}
}

func TestBestEmpty(t *testing.T) {
	a := New[int](4, true, nil, nil)
	if _, ok := a.Best(); ok {
		t.Fatal("Best on empty archive returned ok")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New[int](0, true, nil, nil)
}

func TestDedupKeepsBetter(t *testing.T) {
	key := func(s string) string { return s }
	a := New[string](10, true, key, nil)
	a.Add("x", 5)
	if a.Add("x", 7) {
		t.Fatal("worse duplicate accepted")
	}
	if !a.Add("x", 3) {
		t.Fatal("better duplicate rejected")
	}
	if a.Len() != 1 {
		t.Fatalf("dedup failed: Len = %d", a.Len())
	}
	if best, _ := a.Best(); best.Fitness != 3 {
		t.Fatalf("best = %v", best.Fitness)
	}
}

func TestDedupWithEviction(t *testing.T) {
	key := func(s string) string { return s }
	a := New[string](2, true, key, nil)
	a.Add("a", 1)
	a.Add("b", 2)
	a.Add("c", 0) // evicts b
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	// b's key must have been forgotten: re-adding b at a better fitness
	// must work as a fresh insert.
	if !a.Add("b", 0.5) {
		t.Fatal("evicted key still blocking")
	}
	es := a.Entries()
	if es[0].Item != "c" || es[1].Item != "b" {
		t.Fatalf("entries %v", es)
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	r := rng.New(42)
	f := func(capRaw uint8, seed uint16) bool {
		capacity := int(capRaw%10) + 1
		rr := rng.New(uint64(seed))
		a := New[int](capacity, true, func(v int) string { return fmt.Sprint(v % 7) }, nil)
		for op := 0; op < 200; op++ {
			a.Add(rr.Intn(50), float64(rr.Intn(30)))
			if a.Len() > capacity {
				return false
			}
			// best-first order
			es := a.Entries()
			for i := 1; i < len(es); i++ {
				if es[i-1].Fitness > es[i].Fitness {
					return false
				}
			}
			// dedup: no two entries share a key
			keys := map[string]bool{}
			for _, e := range es {
				k := fmt.Sprint(e.Item % 7)
				if keys[k] {
					return false
				}
				keys[k] = true
			}
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAtAccess(t *testing.T) {
	a := New[int](5, true, nil, nil)
	for i := 5; i > 0; i-- {
		a.Add(i, float64(i))
	}
	for i := 0; i < 5; i++ {
		if a.At(i).Fitness != float64(i+1) {
			t.Fatalf("At(%d) = %v", i, a.At(i).Fitness)
		}
	}
}

func TestBestNeverWorsensUnderAdds(t *testing.T) {
	// Monotone improvement invariant used by the convergence recorders.
	r := rng.New(7)
	a := New[int](10, true, nil, nil)
	bestSeen := 1e18
	for i := 0; i < 1000; i++ {
		f := r.Range(0, 100)
		a.Add(i, f)
		if f < bestSeen {
			bestSeen = f
		}
		if got, _ := a.Best(); got.Fitness != bestSeen {
			t.Fatalf("best %v != running min %v", got.Fitness, bestSeen)
		}
	}
}

// refArchive is the archive as it was before it stored keys: Add re-keys
// every entry from the insertion point on and re-sorts the whole archive
// after replacing a duplicate. TestMatchesReference holds Archive to it.
type refArchive[T any] struct {
	cap      int
	minimize bool
	key      func(T) string
	entries  []Entry[T]
	seen     map[string]int
}

func newRef[T any](capacity int, minimize bool, key func(T) string) *refArchive[T] {
	a := &refArchive[T]{cap: capacity, minimize: minimize, key: key}
	if key != nil {
		a.seen = make(map[string]int)
	}
	return a
}

func (a *refArchive[T]) better(x, y float64) bool {
	if a.minimize {
		return x < y
	}
	return x > y
}

func (a *refArchive[T]) Add(item T, fitness float64) bool {
	if a.key != nil {
		k := a.key(item)
		if idx, dup := a.seen[k]; dup {
			if !a.better(fitness, a.entries[idx].Fitness) {
				return false
			}
			a.entries[idx].Fitness = fitness
			a.entries[idx].Item = item
			sort.SliceStable(a.entries, func(i, j int) bool {
				return a.better(a.entries[i].Fitness, a.entries[j].Fitness)
			})
			a.reindex(0)
			return true
		}
	}
	if len(a.entries) >= a.cap {
		worst := a.entries[len(a.entries)-1].Fitness
		if !a.better(fitness, worst) {
			return false
		}
		evicted := a.entries[len(a.entries)-1]
		a.entries = a.entries[:len(a.entries)-1]
		if a.key != nil {
			delete(a.seen, a.key(evicted.Item))
		}
	}
	pos := sort.Search(len(a.entries), func(i int) bool {
		return a.better(fitness, a.entries[i].Fitness)
	})
	a.entries = append(a.entries, Entry[T]{})
	copy(a.entries[pos+1:], a.entries[pos:])
	a.entries[pos] = Entry[T]{Item: item, Fitness: fitness}
	if a.key != nil {
		a.reindex(pos)
	}
	return true
}

func (a *refArchive[T]) reindex(from int) {
	for i := from; i < len(a.entries); i++ {
		a.seen[a.key(a.entries[i].Item)] = i
	}
}

// sameEntries reports whether got and want hold the same items with
// bit-identical fitnesses (NaN included) in the same order.
func sameEntries[T comparable](got, want []Entry[T]) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Item != want[i].Item ||
			math.Float64bits(got[i].Fitness) != math.Float64bits(want[i].Fitness) {
			return false
		}
	}
	return true
}

// checkIndex fails unless every slot stores key(item) and the key map
// points at exactly the slots.
func checkIndex[T any](t *testing.T, a *Archive[T], key func(T) string) {
	t.Helper()
	if key == nil {
		return
	}
	if len(a.seen) != len(a.slots) {
		t.Fatalf("key map holds %d keys for %d entries", len(a.seen), len(a.slots))
	}
	for i, s := range a.slots {
		if s.key != key(s.Item) {
			t.Fatalf("slot %d stores key %q, item keys to %q", i, s.key, key(s.Item))
		}
		if j, ok := a.seen[s.key]; !ok || j != i {
			t.Fatalf("key %q maps to %d (present %v), want %d", s.key, j, ok, i)
		}
	}
}

// TestMatchesReference drives Archive and refArchive with the same
// random offers — capacities 1–10, both directions, few distinct
// fitnesses (many ties), few distinct keys (many collisions), infinities
// and, on a third of the seeds, NaN — and requires the same answer from
// every Add and the same entries after it. It also pins the cost: at
// most one key per offer, and one clone per admitted item and none for
// a rejected one.
func TestMatchesReference(t *testing.T) {
	fits := []float64{0, 1, 2, 3, 4, 5, math.Inf(1), math.Inf(-1)}
	for seed := uint64(1); seed <= 600; seed++ {
		r := rng.New(seed)
		capacity := 1 + int(seed%10)
		minimize := seed%2 == 0
		withNaN := seed%3 == 0
		mod := 1 + r.Intn(12)
		var key func(int) string
		if seed%7 != 0 {
			key = func(v int) string { return strconv.Itoa(v % mod) }
		}
		keys, clones := 0, 0
		var counted func(int) string
		if key != nil {
			counted = func(v int) string { keys++; return key(v) }
		}
		a := New(capacity, minimize, counted, func(v int) int { clones++; return v })
		ref := newRef(capacity, minimize, key)
		for op := 0; op < 300; op++ {
			item := r.Intn(40)
			f := fits[r.Intn(len(fits))]
			if r.Intn(10) == 0 {
				f = float64(r.Intn(100)) / 7
			}
			if withNaN && r.Intn(30) == 0 {
				f = math.NaN()
			}
			k0, c0 := keys, clones
			got, want := a.Add(item, f), ref.Add(item, f)
			if got != want {
				t.Fatalf("seed %d op %d: Add(%d, %v) = %v, reference %v", seed, op, item, f, got, want)
			}
			if keys-k0 > 1 {
				t.Fatalf("seed %d op %d: %d key calls for one offer", seed, op, keys-k0)
			}
			if n := clones - c0; (got && n != 1) || (!got && n != 0) {
				t.Fatalf("seed %d op %d: %d clones for an offer Add answered %v", seed, op, n, got)
			}
			if !sameEntries(a.Entries(), ref.entries) {
				t.Fatalf("seed %d op %d: entries %v, reference %v", seed, op, a.Entries(), ref.entries)
			}
			checkIndex(t, a, key)
		}
	}
}

// TestFullArchiveRejectsUnkeyed pins that a full archive turns away an
// offer no better than its worst entry without keying it, and keys
// every other offer exactly once.
func TestFullArchiveRejectsUnkeyed(t *testing.T) {
	calls := 0
	key := func(s string) string { calls++; return s }
	a := New[string](3, true, key, nil)
	a.Add("a", 1)
	a.Add("b", 2)
	a.Add("c", 3)
	if calls != 3 {
		t.Fatalf("%d key calls to admit 3 items", calls)
	}
	for _, f := range []float64{3, 4, math.Inf(1), math.NaN()} {
		if a.Add("d", f) || a.Add("a", f) {
			t.Fatalf("full archive admitted an offer at %v", f)
		}
	}
	if calls != 3 {
		t.Fatalf("rejects on fitness made %d key calls", calls-3)
	}
	if a.Add("a", 2.5) {
		t.Fatal("worse duplicate accepted")
	}
	if !a.Add("d", 0) {
		t.Fatal("better item rejected")
	}
	if calls != 5 {
		t.Fatalf("%d key calls for 2 keyed offers, want 2", calls-3)
	}
}

// TestReplaceKeepsTieOrder: a better duplicate moves up past the entries
// it now beats and stays behind the ones it ties, as a stable sort would
// put it.
func TestReplaceKeepsTieOrder(t *testing.T) {
	id := func(s string) string { return s }
	a := New[string](10, true, id, nil)
	ref := newRef[string](10, true, id)
	for _, e := range []Entry[string]{{"a", 1}, {"b", 2}, {"c", 2}, {"d", 2}, {"e", 5}} {
		a.Add(e.Item, e.Fitness)
		ref.Add(e.Item, e.Fitness)
	}
	for _, step := range []struct {
		item  string
		fit   float64
		order string
	}{
		{"e", 2, "abcde"},   // joins the tie group at its end
		{"d", 1, "adbce"},   // passes b and c, stays behind a
		{"e", 0.5, "eadbc"}, // passes everything
	} {
		if !a.Add(step.item, step.fit) || !ref.Add(step.item, step.fit) {
			t.Fatalf("better duplicate %s@%v rejected", step.item, step.fit)
		}
		got := ""
		for _, e := range a.Entries() {
			got += e.Item
		}
		if got != step.order || !sameEntries(a.Entries(), ref.entries) {
			t.Fatalf("after %s@%v: order %s, want %s (reference %v)", step.item, step.fit, got, step.order, ref.entries)
		}
		checkIndex(t, a, id)
	}
}

// TestEvictionForgetsKey: the evicted entry's key leaves the map, so the
// item comes back as a fresh insert.
func TestEvictionForgetsKey(t *testing.T) {
	id := func(s string) string { return s }
	a := New[string](2, true, id, nil)
	a.Add("a", 1)
	a.Add("b", 2)
	a.Add("c", 0) // evicts b
	if _, ok := a.seen["b"]; ok {
		t.Fatal("evicted key still indexed")
	}
	checkIndex(t, a, id)
	if !a.Add("b", 0.5) {
		t.Fatal("evicted item rejected as a duplicate")
	}
	if _, ok := a.seen["a"]; ok {
		t.Fatal("second eviction left its key behind")
	}
	checkIndex(t, a, id)
}

// TestReplaceLastEntry: the worst entry can be replaced by its better
// duplicate, both where it stays last and where it moves to the front.
func TestReplaceLastEntry(t *testing.T) {
	id := func(s string) string { return s }
	a := New[string](3, false, id, nil)
	a.Add("a", 3)
	a.Add("b", 2)
	a.Add("c", 1)
	if !a.Add("c", 1.5) {
		t.Fatal("better duplicate of the worst entry rejected")
	}
	if last := a.At(2); last.Item != "c" || last.Fitness != 1.5 {
		t.Fatalf("last entry %+v, want c@1.5", last)
	}
	checkIndex(t, a, id)
	if !a.Add("c", 4) {
		t.Fatal("best duplicate of the worst entry rejected")
	}
	if es := a.Entries(); es[0].Item != "c" || es[1].Item != "a" || es[2].Item != "b" {
		t.Fatalf("entries %v, want c a b", es)
	}
	checkIndex(t, a, id)
}

// TestCloneOnlyOnAdmission: the archive keeps its own copy of what it
// admits, so the caller may reuse the offered slice, and copies nothing
// it turns away.
func TestCloneOnlyOnAdmission(t *testing.T) {
	clones := 0
	clone := func(x []float64) []float64 { clones++; return slices.Clone(x) }
	a := New(2, false, nil, clone)
	x := []float64{1}
	a.Add(x, 1)
	x[0] = 2
	a.Add(x, 2)
	x[0] = 3
	if a.Add(x, 0) {
		t.Fatal("worse-than-worst accepted at capacity")
	}
	if clones != 2 {
		t.Fatalf("%d clones for 2 admissions", clones)
	}
	if es := a.Entries(); es[0].Item[0] != 2 || es[1].Item[0] != 1 {
		t.Fatalf("archived items follow the caller's slice: %v", es)
	}
}

// BenchmarkArchiveAdd offers a full keyed 100-entry archive of price-like
// vectors a fixed mix of 300 offers: 100 rejects on fitness, 100 inserts
// of new items and 100 better duplicates of archived ones. Each
// iteration starts from the same freshly filled archive (built with the
// timer stopped), so allocs/op counts what the mix itself costs.
func BenchmarkArchiveAdd(b *testing.B) {
	const size, dim = 100, 8
	key := func(p []float64) string {
		buf := make([]byte, 0, len(p)*8)
		for _, v := range p {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return string(buf)
	}
	r := rng.New(1)
	vec := func() []float64 {
		p := make([]float64, dim)
		for i := range p {
			p[i] = r.Float64()
		}
		return p
	}
	fill := make([]Entry[[]float64], size)
	for i := range fill {
		fill[i] = Entry[[]float64]{vec(), r.Range(100, 200)} // maximize: worst ≥ 100
	}
	offers := make([]Entry[[]float64], 0, 3*size)
	for i := 0; i < size; i++ {
		offers = append(offers,
			Entry[[]float64]{vec(), r.Range(0, 100)},                     // reject
			Entry[[]float64]{vec(), r.Range(100, 200)},                   // insert
			Entry[[]float64]{fill[r.Intn(size)].Item, r.Range(150, 250)}) // duplicate
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := New(size, false, key, slices.Clone[[]float64])
		for _, e := range fill {
			a.Add(e.Item, e.Fitness)
		}
		b.StartTimer()
		for _, o := range offers {
			a.Add(o.Item, o.Fitness)
		}
	}
}
