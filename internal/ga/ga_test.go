package ga

import (
	"math"
	"testing"
	"testing/quick"

	"carbon/internal/rng"
)

func unitBounds(n int) Bounds {
	lo := make([]float64, n)
	up := make([]float64, n)
	for i := range up {
		up[i] = 1
	}
	return Bounds{Lo: lo, Up: up}
}

func TestBoundsValidate(t *testing.T) {
	b := unitBounds(3)
	if err := b.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(4); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	bad := Bounds{Lo: []float64{2}, Up: []float64{1}}
	if err := bad.Validate(1); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	nan := Bounds{Lo: []float64{math.NaN()}, Up: []float64{1}}
	if err := nan.Validate(1); err == nil {
		t.Fatal("NaN bounds accepted")
	}
}

func TestClamp(t *testing.T) {
	b := Bounds{Lo: []float64{0, -1}, Up: []float64{1, 1}}
	v := []float64{-5, 3}
	b.Clamp(v)
	if v[0] != 0 || v[1] != 1 {
		t.Fatalf("Clamp gave %v", v)
	}
}

func TestRandomVectorInBounds(t *testing.T) {
	r := rng.New(1)
	b := Bounds{Lo: []float64{-2, 0, 5}, Up: []float64{2, 0, 6}}
	for trial := 0; trial < 200; trial++ {
		v := b.RandomVector(r)
		for i := range v {
			if v[i] < b.Lo[i] || v[i] > b.Up[i] {
				t.Fatalf("gene %d = %v outside [%v,%v]", i, v[i], b.Lo[i], b.Up[i])
			}
		}
		if v[1] != 0 {
			t.Fatalf("degenerate gene should be fixed, got %v", v[1])
		}
	}
}

func TestSBXStaysInBounds(t *testing.T) {
	r := rng.New(2)
	const n = 20
	b := unitBounds(n)
	for trial := 0; trial < 500; trial++ {
		p1 := b.RandomVector(r)
		p2 := b.RandomVector(r)
		c1, c2 := SBX(r, p1, p2, b, 15)
		for i := 0; i < n; i++ {
			for _, c := range [][]float64{c1, c2} {
				if c[i] < -1e-12 || c[i] > 1+1e-12 {
					t.Fatalf("trial %d: child gene %v out of [0,1]", trial, c[i])
				}
			}
		}
	}
}

func TestSBXDoesNotMutateParents(t *testing.T) {
	r := rng.New(3)
	b := unitBounds(10)
	p1 := b.RandomVector(r)
	p2 := b.RandomVector(r)
	p1c := append([]float64(nil), p1...)
	p2c := append([]float64(nil), p2...)
	for i := 0; i < 100; i++ {
		SBX(r, p1, p2, b, 15)
	}
	for i := range p1 {
		if p1[i] != p1c[i] || p2[i] != p2c[i] {
			t.Fatal("SBX mutated a parent")
		}
	}
}

func TestSBXMeanPreservation(t *testing.T) {
	// SBX children are symmetric around the parent midpoint in
	// expectation (boundary truncation introduces only a small bias away
	// from the edges).
	r := rng.New(4)
	b := Bounds{Lo: []float64{0}, Up: []float64{10}}
	p1 := []float64{4}
	p2 := []float64{6}
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		c1, c2 := SBX(r, p1, p2, b, 10)
		sum += c1[0] + c2[0]
	}
	mean := sum / (2 * trials)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("child mean %v, want ~5", mean)
	}
}

func TestSBXHighEtaStaysNearParents(t *testing.T) {
	// Large eta concentrates children near the parents.
	r := rng.New(5)
	b := Bounds{Lo: []float64{0}, Up: []float64{10}}
	far := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		c1, c2 := SBX(r, []float64{3}, []float64{7}, b, 100)
		for _, c := range []float64{c1[0], c2[0]} {
			if math.Abs(c-3) > 1 && math.Abs(c-7) > 1 {
				far++
			}
		}
	}
	if frac := float64(far) / (2 * trials); frac > 0.02 {
		t.Fatalf("%v of high-eta children far from both parents", frac)
	}
}

func TestSBXIdenticalParents(t *testing.T) {
	r := rng.New(6)
	b := unitBounds(5)
	p := []float64{0.3, 0.3, 0.3, 0.3, 0.3}
	c1, c2 := SBX(r, p, p, b, 15)
	for i := range p {
		if c1[i] != p[i] || c2[i] != p[i] {
			t.Fatal("identical parents should reproduce unchanged")
		}
	}
}

func TestPolynomialMutateInBounds(t *testing.T) {
	r := rng.New(7)
	b := Bounds{Lo: []float64{-3, 0, 2}, Up: []float64{3, 1, 2}}
	for trial := 0; trial < 1000; trial++ {
		v := b.RandomVector(r)
		PolynomialMutateInPlace(r, v, b, 20, 1.0)
		for i := range v {
			if v[i] < b.Lo[i]-1e-12 || v[i] > b.Up[i]+1e-12 {
				t.Fatalf("gene %d = %v outside bounds", i, v[i])
			}
		}
		if v[2] != 2 {
			t.Fatalf("fixed gene moved to %v", v[2])
		}
	}
}

func TestPolynomialMutateRate(t *testing.T) {
	r := rng.New(8)
	b := unitBounds(1000)
	v := make([]float64, 1000)
	for i := range v {
		v[i] = 0.5
	}
	PolynomialMutateInPlace(r, v, b, 20, 0.01)
	changed := 0
	for _, x := range v {
		if x != 0.5 {
			changed++
		}
	}
	// pm=0.01 over 1000 genes: ~10 expected; allow wide slack.
	if changed == 0 || changed > 40 {
		t.Fatalf("pm=0.01 changed %d/1000 genes", changed)
	}
}

func TestPolynomialMutateSmallPerturbations(t *testing.T) {
	// High eta keeps mutations local.
	r := rng.New(9)
	b := Bounds{Lo: []float64{0}, Up: []float64{1}}
	big := 0
	for trial := 0; trial < 5000; trial++ {
		v := []float64{0.5}
		PolynomialMutateInPlace(r, v, b, 100, 1.0)
		if math.Abs(v[0]-0.5) > 0.1 {
			big++
		}
	}
	if frac := float64(big) / 5000; frac > 0.01 {
		t.Fatalf("%v of high-eta mutations were large", frac)
	}
}

func TestBinaryTournamentSelectsBetter(t *testing.T) {
	r := rng.New(10)
	fitness := []float64{5, 1, 9, 3, 7}
	better := func(i, j int) bool { return fitness[i] < fitness[j] }
	wins := make([]int, len(fitness))
	for trial := 0; trial < 10000; trial++ {
		wins[BinaryTournament(r, len(fitness), better)]++
	}
	// The best individual (index 1) must win the most, the worst
	// (index 2) the least.
	for i := range wins {
		if i != 1 && wins[1] <= wins[i] {
			t.Fatalf("best did not dominate: wins=%v", wins)
		}
		if i != 2 && wins[2] >= wins[i] {
			t.Fatalf("worst not dominated: wins=%v", wins)
		}
	}
	// With distinct candidates the worst individual can never win.
	if wins[2] != 0 {
		t.Fatalf("worst individual won %d tournaments", wins[2])
	}
}

func TestBinaryTournamentDistinctCandidates(t *testing.T) {
	// With n=2 the two candidates are always distinct, so the better one
	// must win every time.
	r := rng.New(11)
	better := func(i, j int) bool { return i < j }
	for trial := 0; trial < 100; trial++ {
		if BinaryTournament(r, 2, better) != 0 {
			t.Fatal("with distinct candidates the better must always win")
		}
	}
	if BinaryTournament(r, 1, better) != 0 {
		t.Fatal("singleton tournament must return 0")
	}
}

func TestTournamentPressureGrowsWithK(t *testing.T) {
	r := rng.New(12)
	fitness := []float64{4, 1, 3, 2, 5, 8, 7, 6, 0, 9}
	better := func(i, j int) bool { return fitness[i] < fitness[j] }
	winsAtK := func(k int) int {
		best := 0
		for trial := 0; trial < 5000; trial++ {
			if fitness[Tournament(r, len(fitness), k, better)] == 0 {
				best++
			}
		}
		return best
	}
	if w2, w5 := winsAtK(2), winsAtK(5); w5 <= w2 {
		t.Fatalf("selection pressure did not grow with k: k2=%d k5=%d", w2, w5)
	}
}

func TestTournamentPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Tournament(rng.New(1), 0, 2, func(i, j int) bool { return true })
}

func TestTwoPointCrossover(t *testing.T) {
	r := rng.New(13)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		n := rr.IntRange(2, 40)
		a := make([]bool, n)
		b := make([]bool, n)
		for i := range a {
			a[i] = true // a is all ones, b all zeros
		}
		c1, c2 := TwoPointCrossover(rr, a, b)
		// Complementarity: at each locus the children carry one 1 and one 0.
		for i := 0; i < n; i++ {
			if c1[i] == c2[i] {
				return false
			}
		}
		// c1 must be: ones outside [p1,p2), zeros inside — i.e. at most
		// two switches when scanning.
		switches := 0
		for i := 1; i < n; i++ {
			if c1[i] != c1[i-1] {
				switches++
			}
		}
		return switches <= 2
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPointCrossoverShortVectors(t *testing.T) {
	r := rng.New(14)
	a, b := []bool{true}, []bool{false}
	c1, c2 := TwoPointCrossover(r, a, b)
	if !c1[0] || c2[0] {
		t.Fatal("length-1 vectors must copy through")
	}
}

func TestSwapMutateRate(t *testing.T) {
	r := rng.New(15)
	const n = 10000
	v := make([]bool, n)
	SwapMutateInPlace(r, v, 20.0/float64(n)) // expect ~20 flips
	flips := 0
	for _, x := range v {
		if x {
			flips++
		}
	}
	if flips < 5 || flips > 50 {
		t.Fatalf("pm=20/n flipped %d bits of %d", flips, n)
	}
}

func BenchmarkSBX(b *testing.B) {
	r := rng.New(16)
	bounds := unitBounds(50)
	p1 := bounds.RandomVector(r)
	p2 := bounds.RandomVector(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SBX(r, p1, p2, bounds, 15)
	}
}

func BenchmarkPolynomialMutate(b *testing.B) {
	r := rng.New(17)
	bounds := unitBounds(50)
	v := bounds.RandomVector(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PolynomialMutateInPlace(r, v, bounds, 20, 0.1)
	}
}

func TestTopK(t *testing.T) {
	fit := []float64{5, 1, 9, 3}
	better := func(i, j int) bool { return fit[i] < fit[j] }
	got := TopK(len(fit), 2, better)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("TopK = %v", got)
	}
	if TopK(len(fit), 0, better) != nil {
		t.Fatal("TopK(0) should be nil")
	}
	all := TopK(len(fit), 10, better)
	if len(all) != 4 {
		t.Fatalf("TopK over-asking returned %d", len(all))
	}
}
