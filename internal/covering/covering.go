// Package covering models the lower-level problem of the Bi-level Cloud
// Pricing Optimization Problem (Program 2 in the paper): a generalized
// covering problem
//
//	min  Σⱼ cⱼ·xⱼ
//	s.t. Σⱼ qⱼᵏ·xⱼ ≥ bᵏ   for every service k
//	     xⱼ ∈ {0,1}
//
// with non-binary coefficient matrices (the paper's modified-MKP
// instances). The package provides:
//
//   - the Instance type with feasibility/cost accounting,
//   - the LP relaxation (lower bound LB, duals d_k, relaxed solution x̄ⱼ
//     — the data the paper's Table I terminals and Eq. 1 gap need),
//   - a greedy driven by an arbitrary per-item score vector (the
//     paper's generated-heuristic shape: "a scoring function that
//     permits to sort bundles", then add in that order until covered),
//   - Chvátal's adaptive ratio greedy as a classic baseline and repair
//     completion for infeasible binary vectors (COBRA's LL needs this),
//   - an exact branch-and-bound oracle for small instances (tests).
package covering

import (
	"errors"
	"fmt"
	"math"
)

// Instance is one covering instance. Q is stored row-major
// (Q[k][j] = qⱼᵏ, row per service k); Cols caches the column view for
// per-item scans. Build instances with New, which validates and caches.
type Instance struct {
	C    []float64   // item costs, length M
	Q    [][]float64 // N×M requirement matrix
	B    []float64   // service requirements, length N
	Cols [][]float64 // M×N column view of Q (derived)
}

// New validates the data and builds the column cache.
func New(c []float64, q [][]float64, b []float64) (*Instance, error) {
	in := &Instance{C: c, Q: q, B: b}
	if err := in.validate(); err != nil {
		return nil, err
	}
	in.buildCols()
	return in, nil
}

// M returns the number of items (bundles).
func (in *Instance) M() int { return len(in.C) }

// N returns the number of services (constraints).
func (in *Instance) N() int { return len(in.B) }

func (in *Instance) validate() error {
	m, n := len(in.C), len(in.B)
	if m == 0 || n == 0 {
		return errors.New("covering: empty instance")
	}
	if len(in.Q) != n {
		return fmt.Errorf("covering: %d rows in Q, want %d", len(in.Q), n)
	}
	for k, row := range in.Q {
		if len(row) != m {
			return fmt.Errorf("covering: row %d has %d entries, want %d", k, len(row), m)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("covering: bad coefficient q[%d][%d] = %v", k, j, v)
			}
		}
	}
	for j, c := range in.C {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("covering: bad cost c[%d] = %v", j, c)
		}
	}
	for k, b := range in.B {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("covering: bad requirement b[%d] = %v", k, b)
		}
	}
	return nil
}

func (in *Instance) buildCols() {
	m, n := in.M(), in.N()
	flat := make([]float64, m*n)
	in.Cols = make([][]float64, m)
	for j := 0; j < m; j++ {
		col := flat[j*n : (j+1)*n]
		for k := 0; k < n; k++ {
			col[k] = in.Q[k][j]
		}
		in.Cols[j] = col
	}
}

// WithCosts returns a shallow variant of the instance sharing Q/B but
// using the given cost vector. The BCPOP leader re-prices items without
// copying the matrix.
func (in *Instance) WithCosts(c []float64) (*Instance, error) {
	if len(c) != in.M() {
		return nil, fmt.Errorf("covering: got %d costs, want %d", len(c), in.M())
	}
	for j, v := range c {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("covering: bad cost c[%d] = %v", j, v)
		}
	}
	out := *in
	out.C = c
	return &out, nil
}

// SelectionFeasible reports whether the selection covers every service.
func (in *Instance) SelectionFeasible(x []bool) bool {
	for k, row := range in.Q {
		got := 0.0
		for j, sel := range x {
			if sel {
				got += row[j]
			}
		}
		if got < in.B[k]-1e-9 {
			return false
		}
	}
	return true
}

// SelectionCost returns the total cost of the selection.
func (in *Instance) SelectionCost(x []bool) float64 {
	total := 0.0
	for j, sel := range x {
		if sel {
			total += in.C[j]
		}
	}
	return total
}

// FullSelectionFeasible reports whether buying everything covers all
// requirements — the basic sanity check the paper applies when deriving
// instances ("we also ensure that each modified instance has a non-empty
// search space").
func (in *Instance) FullSelectionFeasible() bool {
	x := make([]bool, in.M())
	for j := range x {
		x[j] = true
	}
	return in.SelectionFeasible(x)
}

// GreedyResult reports one greedy (or repair) run.
type GreedyResult struct {
	X        []bool
	Cost     float64
	Feasible bool
	Added    int // items added by the sweep (before redundancy removal)
}

// GreedyByScore runs the paper's generated-heuristic execution model:
// items are taken in order of descending score (ties by index) —
// skipping items that no longer contribute to any unmet requirement —
// until every requirement is covered. A NaN score ranks after every
// other score. When eliminate is true a reverse-order redundancy pass
// drops items whose removal keeps the selection feasible. The returned
// selection is freshly allocated; the evaluation hot path uses
// GreedyByScoreInto with reused scratch.
func (in *Instance) GreedyByScore(scores []float64, eliminate bool) GreedyResult {
	var sc GreedyScratch
	return in.GreedyByScoreInto(scores, eliminate, &sc)
}

// GreedyScratch holds the reusable working state of GreedyByScoreInto:
// the ranking heap of items, residual-requirement and surplus vectors,
// the selection itself and the pick order. One scratch per worker makes
// steady-state greedy runs allocation-free. The zero value is ready to
// use; buffers grow to the instance size on first call.
type GreedyScratch struct {
	ranked    itemHeap
	resid     []float64
	x         []bool
	pickOrder []int
	surplus   []float64
}

// itemHeap hands out item indices best first: descending score, ties
// by ascending index. The sweep usually covers every requirement after
// a fraction of the items, so the items are heapified once, in O(m),
// and only those the sweep reaches are ordered, one pop each.
//
// Each score becomes an order-preserving integer key (rankKey), and
// (key descending, index ascending) is a strict total order. On scores
// without NaN it is exactly the order of descending score with index
// tiebreak, ±0 comparing equal, so the picks are those of a full sort
// by that comparator, whatever the sort algorithm.
type itemHeap struct {
	items []int32
	keys  []uint64
}

// rankKey maps a score to a key whose unsigned order is the score's:
// −0 shares +0's key, and NaN gets 0, below every other score's key
// (−Inf's is 2^52 − 1).
func rankKey(s float64) uint64 {
	if s != s {
		return 0
	}
	if s == 0 {
		s = 0 // −0 → +0
	}
	b := math.Float64bits(s)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// reset ranks the items of scores.
func (h *itemHeap) reset(scores []float64) {
	m := len(scores)
	h.items, h.keys = grow(h.items, m), grow(h.keys, m)
	items, keys := h.items, h.keys
	for j, s := range scores {
		items[j], keys[j] = int32(j), rankKey(s)
	}
	for i := m/2 - 1; i >= 0; i-- {
		siftDown(items, keys, i)
	}
}

// pop removes and returns the best-ranked item left; ok is false once
// every item is out.
func (h *itemHeap) pop() (j int, ok bool) {
	items := h.items
	last := len(items) - 1
	if last < 0 {
		return 0, false
	}
	j = int(items[0])
	items[0] = items[last]
	h.items = items[:last]
	if last > 0 {
		siftDown(h.items, h.keys, 0)
	}
	return j, true
}

// siftDown moves items[i] down the heap to where neither child ranks
// before it.
func siftDown(items []int32, keys []uint64, i int) {
	it, k := items[i], keys[items[i]]
	n := len(items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		ci, ck := items[c], keys[items[c]]
		if c+1 < n {
			if ri, rk := items[c+1], keys[items[c+1]]; rk > ck || rk == ck && ri < ci {
				c, ci, ck = c+1, ri, rk
			}
		}
		if ck < k || ck == k && ci > it {
			break
		}
		items[i] = ci
		i = c
	}
	items[i] = it
}

// grow returns buf resized to n, reusing capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// GreedyByScoreInto is GreedyByScore with caller-owned scratch: same
// decisions, same result, zero allocations once the scratch has grown
// to the instance size. The returned selection (X) aliases sc.x and is
// only valid until the next call with the same scratch — callers that
// retain it must copy.
func (in *Instance) GreedyByScoreInto(scores []float64, eliminate bool, sc *GreedyScratch) GreedyResult {
	m, n := in.M(), in.N()
	sc.ranked.reset(scores[:m])

	sc.resid = grow(sc.resid, n)
	resid := sc.resid
	copy(resid, in.B)
	remaining := 0
	for _, r := range resid {
		if r > 1e-9 {
			remaining++
		}
	}
	sc.x = grow(sc.x, m)
	x := sc.x
	for j := range x {
		x[j] = false
	}
	cost := 0.0
	added := 0
	pickOrder := sc.pickOrder[:0]
	for remaining > 0 {
		j, ok := sc.ranked.pop()
		if !ok {
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
	sc.pickOrder = pickOrder
	feasible := remaining == 0
	if feasible && eliminate {
		sc.surplus = grow(sc.surplus, n)
		cost = in.eliminateRedundantInto(x, pickOrder, cost, sc.surplus)
	}
	return GreedyResult{X: x, Cost: cost, Feasible: feasible, Added: added}
}

// eliminateRedundant drops items in reverse pick order when the
// remaining selection still covers everything. It returns the new cost.
func (in *Instance) eliminateRedundant(x []bool, pickOrder []int, cost float64) float64 {
	return in.eliminateRedundantInto(x, pickOrder, cost, make([]float64, in.N()))
}

// eliminateRedundantInto is eliminateRedundant with a caller-owned
// surplus buffer (len ≥ N).
func (in *Instance) eliminateRedundantInto(x []bool, pickOrder []int, cost float64, surplus []float64) float64 {
	n := in.N()
	// Track per-service surplus: Σ q - b. One pass over the selection
	// in ascending j adds each selected column, so every service's sum
	// starts at 0 and adds its entries in ascending j, as a row scan
	// would.
	surplus = surplus[:n]
	for k := range surplus {
		surplus[k] = 0
	}
	for j, sel := range x {
		if sel {
			col := in.Cols[j]
			for k := range surplus {
				surplus[k] += col[k]
			}
		}
	}
	for k, b := range in.B {
		surplus[k] -= b
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
	return cost
}

// ChvatalGreedy is the classic adaptive ratio greedy: repeatedly add the
// item maximizing covered-residual-demand per unit cost. It serves as the
// hand-written baseline heuristic and as the repair engine.
func (in *Instance) ChvatalGreedy() GreedyResult {
	x := make([]bool, in.M())
	return in.repairFrom(x, 0)
}

// Repair completes an arbitrary selection to feasibility by Chvátal
// steps, then removes redundant items (cheapest-completion repair used
// for COBRA's raw binary LL vectors). The input is not mutated.
func (in *Instance) Repair(x []bool) GreedyResult {
	if len(x) != in.M() {
		panic("covering: repair selection length mismatch")
	}
	clone := append([]bool(nil), x...)
	cost := in.SelectionCost(clone)
	return in.repairFrom(clone, cost)
}

func (in *Instance) repairFrom(x []bool, cost float64) GreedyResult {
	n := in.N()
	resid := append([]float64(nil), in.B...)
	for j, sel := range x {
		if sel {
			col := in.Cols[j]
			for k := 0; k < n; k++ {
				resid[k] -= col[k]
			}
		}
	}
	remaining := 0
	for k := range resid {
		if resid[k] > 1e-9 {
			remaining++
		}
	}
	added := 0
	pickOrder := make([]int, 0, in.M())
	for j, sel := range x {
		if sel {
			pickOrder = append(pickOrder, j)
		}
	}
	for remaining > 0 {
		bestJ, bestRatio := -1, 0.0
		for j, sel := range x {
			if sel {
				continue
			}
			col := in.Cols[j]
			gain := 0.0
			for k := 0; k < n; k++ {
				if resid[k] > 1e-9 {
					gain += math.Min(col[k], resid[k])
				}
			}
			if gain <= 0 {
				continue
			}
			ratio := gain / math.Max(in.C[j], 1e-12)
			if bestJ < 0 || ratio > bestRatio {
				bestJ, bestRatio = j, ratio
			}
		}
		if bestJ < 0 {
			// No item can reduce the residual: infeasible instance.
			return GreedyResult{X: x, Cost: cost, Feasible: false, Added: added}
		}
		x[bestJ] = true
		cost += in.C[bestJ]
		added++
		pickOrder = append(pickOrder, bestJ)
		col := in.Cols[bestJ]
		for k := 0; k < n; k++ {
			if resid[k] > 1e-9 {
				resid[k] -= col[k]
				if resid[k] <= 1e-9 {
					remaining--
				}
			}
		}
	}
	cost = in.eliminateRedundant(x, pickOrder, cost)
	return GreedyResult{X: x, Cost: cost, Feasible: true, Added: added}
}
