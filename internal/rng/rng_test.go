package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	var all uint64
	for i := 0; i < 10; i++ {
		all |= r.Uint64()
	}
	if all == 0 {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatal("sibling children produced identical output")
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a, b := New(9), New(9)
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	// Chi-squared with 9 dof; 99.9% critical value ≈ 27.88.
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("Intn uniformity chi2 = %v (counts %v)", chi2, counts)
	}
}

func TestIntRange(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 4)
		if v < -3 || v > 4 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d", got)
	}
}

func TestRange(t *testing.T) {
	r := New(19)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2.5, 7.5)
		if v < -2.5 || v >= 7.5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(23)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(29)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(41)
	f := func(kRaw, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleDistinct(k, n)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinctPanicsWhenKExceedsN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).SampleDistinct(5, 3)
}

func TestSampleDistinctFull(t *testing.T) {
	s := New(43).SampleDistinct(8, 8)
	seen := make([]bool, 8)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("full sample missing %d", i)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}
