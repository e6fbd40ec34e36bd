package covering

import (
	"math"
	"slices"
	"sort"
	"testing"

	"carbon/internal/rng"
)

// scoreSorter is the ranking oracle: it sorts an index permutation by
// descending score with index tiebreak, which is the order the greedy
// takes items in. The comparator is a strict total order whenever no
// score is NaN, so the sorted permutation does not depend on the sort
// algorithm.
type scoreSorter struct {
	order  []int
	scores []float64
}

func (s *scoreSorter) Len() int { return len(s.order) }
func (s *scoreSorter) Less(a, b int) bool {
	sa, sb := s.scores[s.order[a]], s.scores[s.order[b]]
	if sa != sb {
		return sa > sb
	}
	return s.order[a] < s.order[b]
}
func (s *scoreSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

// sortedOrder is the oracle's ranking of the items of scores.
func sortedOrder(scores []float64) []int {
	s := &scoreSorter{order: make([]int, len(scores)), scores: scores}
	for j := range s.order {
		s.order[j] = j
	}
	sort.Sort(s)
	return s.order
}

// heapOrder pops every item of the ranking heap, reusing h.
func heapOrder(h *itemHeap, scores []float64) []int {
	h.reset(scores)
	var out []int
	for {
		j, ok := h.pop()
		if !ok {
			return out
		}
		out = append(out, j)
	}
}

// rankScore draws a score that stresses the ranking: ties from a small
// palette, signed zeros, infinities, subnormals, extremes and ordinary
// values.
func rankScore(r *rng.Rand) float64 {
	switch r.IntRange(0, 7) {
	case 0:
		return float64(r.IntRange(-2, 2)) // frequent ties
	case 1:
		return math.Copysign(0, float64(r.IntRange(-1, 0))*2+1) // ±0
	case 2:
		return math.Inf(r.IntRange(0, 1)*2 - 1)
	case 3:
		sub := math.Float64frombits(r.Uint64() & (1<<52 - 1))
		if r.Bool(0.5) {
			sub = -sub
		}
		return sub
	case 4:
		return []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
			-math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022}[r.IntRange(0, 5)]
	case 5:
		return math.Float64frombits(r.Uint64()) // any bits, NaN included
	default:
		return r.Range(-5, 5)
	}
}

// rankScoreNoNaN is rankScore redrawn until it is not NaN.
func rankScoreNoNaN(r *rng.Rand) float64 {
	for {
		if s := rankScore(r); !math.IsNaN(s) {
			return s
		}
	}
}

// TestItemHeapMatchesSortOracle checks, for every item count from 1 to
// 600, that the heap hands out NaN-free scores in exactly the oracle's
// order, with one heap reused across sizes.
func TestItemHeapMatchesSortOracle(t *testing.T) {
	r := rng.New(41)
	var h itemHeap
	for m := 1; m <= 600; m++ {
		for trial := 0; trial < 3; trial++ {
			scores := make([]float64, m)
			for j := range scores {
				scores[j] = rankScoreNoNaN(r)
			}
			if got, want := heapOrder(&h, scores), sortedOrder(scores); !slices.Equal(got, want) {
				t.Fatalf("m=%d trial %d: heap order %v, sort order %v (scores %v)", m, trial, got, want, scores)
			}
		}
	}
}

// TestItemHeapRanksNaNLast pins the one place the heap's order is
// defined where the oracle's is not: NaN scores rank after every other
// score, −Inf included, in ascending index order among themselves.
func TestItemHeapRanksNaNLast(t *testing.T) {
	nan := math.NaN()
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	scores := []float64{nan, 3, math.Inf(-1), negNaN, math.Inf(1), nan, math.Copysign(0, -1), -7}
	var h itemHeap
	got := heapOrder(&h, scores)
	want := []int{4, 1, 6, 7, 2, 0, 3, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("heap order %v, want %v", got, want)
	}

	// In the greedy a NaN-scored item is taken only when every
	// better-ranked item leaves a requirement unmet: item 0 alone
	// would cover both services, but its NaN score puts it last.
	in := tiny(t)
	res := in.GreedyByScore([]float64{nan, 1, math.Inf(-1)}, false)
	if !res.Feasible || res.X[0] || !res.X[1] || !res.X[2] || res.Added != 2 {
		t.Fatalf("greedy with a NaN-scored item 0: %+v, want items 1 and 2 only", res)
	}
	res = in.GreedyByScore([]float64{nan, 1, nan}, false)
	if !res.Feasible || !res.X[0] || !res.X[1] || res.X[2] || res.Added != 2 {
		t.Fatalf("greedy with NaN-scored items 0 and 2: %+v, want items 1 then 0", res)
	}
}

// sortedGreedy is the greedy's oracle: a full sort by the oracle's
// order, the sweep, and a redundancy pass whose surplus is a row scan
// of Q. GreedyByScoreInto must match it bit for bit.
func (in *Instance) sortedGreedy(scores []float64, eliminate bool) GreedyResult {
	m, n := in.M(), in.N()
	resid := append([]float64(nil), in.B...)
	remaining := 0
	for _, r := range resid {
		if r > 1e-9 {
			remaining++
		}
	}
	x := make([]bool, m)
	cost, added := 0.0, 0
	var pickOrder []int
	for _, j := range sortedOrder(scores[:m]) {
		if remaining == 0 {
			break
		}
		col := in.Cols[j]
		contributes := false
		for k := 0; k < n; k++ {
			if resid[k] > 1e-9 && col[k] > 0 {
				contributes = true
				break
			}
		}
		if !contributes {
			continue
		}
		x[j] = true
		cost += in.C[j]
		added++
		pickOrder = append(pickOrder, j)
		for k := 0; k < n; k++ {
			if resid[k] > 1e-9 {
				resid[k] -= col[k]
				if resid[k] <= 1e-9 {
					remaining--
				}
			}
		}
	}
	feasible := remaining == 0
	if feasible && eliminate {
		surplus := make([]float64, n)
		for k, row := range in.Q {
			got := 0.0
			for j, sel := range x {
				if sel {
					got += row[j]
				}
			}
			surplus[k] = got - in.B[k]
		}
		for i := len(pickOrder) - 1; i >= 0; i-- {
			j := pickOrder[i]
			col := in.Cols[j]
			removable := true
			for k := 0; k < n; k++ {
				if col[k] > surplus[k]+1e-9 {
					removable = false
					break
				}
			}
			if !removable {
				continue
			}
			x[j] = false
			cost -= in.C[j]
			for k := 0; k < n; k++ {
				surplus[k] -= col[k]
			}
		}
	}
	return GreedyResult{X: x, Cost: cost, Feasible: feasible, Added: added}
}

// TestGreedyByScoreMatchesSortedGreedy runs the greedy with one
// scratch reused across instance sizes against the full-sort oracle,
// on fractional coefficients (so the surplus sums round) and on scores
// with ties, signed zeros, infinities and subnormals.
func TestGreedyByScoreMatchesSortedGreedy(t *testing.T) {
	r := rng.New(43)
	var sc GreedyScratch
	for trial := 0; trial < 150; trial++ {
		m, n := r.IntRange(1, 300), r.IntRange(1, 30)
		c, q, b := make([]float64, m), make([][]float64, n), make([]float64, n)
		for j := range c {
			c[j] = r.Range(0, 50)
		}
		for k := range q {
			q[k] = make([]float64, m)
			rowSum := 0.0
			for j := range q[k] {
				if r.Bool(0.4) {
					q[k][j] = r.Range(0, 9)
					rowSum += q[k][j]
				}
			}
			b[k] = rowSum * r.Range(0.1, 0.9)
		}
		if trial%10 == 0 {
			b[0] = 1 // above what every item together covers: infeasible
			for _, v := range q[0] {
				b[0] += v
			}
		}
		in, err := New(c, q, b)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, m)
		for j := range scores {
			scores[j] = rankScoreNoNaN(r)
		}
		for _, eliminate := range []bool{false, true} {
			want := in.sortedGreedy(scores, eliminate)
			got := in.GreedyByScoreInto(scores, eliminate, &sc)
			if !slices.Equal(got.X, want.X) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
				got.Feasible != want.Feasible || got.Added != want.Added {
				t.Fatalf("trial %d (m=%d n=%d eliminate=%v): got %+v, want %+v", trial, m, n, eliminate, got, want)
			}
		}
	}
}
