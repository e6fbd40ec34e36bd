package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		const n = 1000
		hits := make([]int32, n)
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-5, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was not propagated")
		}
		pe, ok := r.(*panicErr)
		if !ok {
			t.Fatalf("unexpected panic payload %T", r)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("panic message lost: %v", pe)
		}
	}()
	ForEach(100, 4, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestForEachPanicSequential(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sequential panic not propagated")
		}
	}()
	ForEach(3, 1, func(i int) { panic("seq") })
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("Workers(5) != 5")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(0) != GOMAXPROCS")
	}
	if Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(-1) != GOMAXPROCS")
	}
}

func TestPoolWaves(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for wave := 0; wave < 5; wave++ {
		var count int32
		for i := 0; i < 100; i++ {
			p.Submit(func() { atomic.AddInt32(&count, 1) })
		}
		p.Wait()
		if count != 100 {
			t.Fatalf("wave %d: %d/100 tasks ran before Wait returned", wave, count)
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Submit(func() {})
	p.Close()
	p.Close() // must not panic
}

func BenchmarkForEachSmallBody(b *testing.B) {
	var sink int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForEach(256, 0, func(j int) { atomic.AddInt64(&sink, int64(j)) })
	}
	_ = sink
}

func TestStripedContiguousStripes(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		const n = 5
		owner := make([]int, n)
		hits := make([]int32, n)
		Striped(n, workers, nil, func(i, w int) {
			atomic.AddInt32(&hits[i], 1)
			owner[i] = w
		})
		for i := range hits {
			if hits[i] != 1 {
				t.Fatalf("workers=%d: item %d hit %d times", workers, i, hits[i])
			}
			w := min(workers, n)
			want := 0 // the last stripe starting at or before i
			for s := 0; s < w; s++ {
				if n*s/w <= i {
					want = s
				}
			}
			if owner[i] != want {
				t.Fatalf("workers=%d: item %d ran on stripe %d, want %d", workers, i, owner[i], want)
			}
		}
	}
	Striped(0, 2, nil, func(i, w int) { t.Fatal("called on an empty range") })
}
