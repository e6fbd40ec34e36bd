// Shared-relaxation evaluation cache.
//
// The quantities the predator fitness (Eq. 1 %-gap) needs — LB(x), the
// duals and x̄ of the induced instance — depend only on the prey
// decision x, never on the predator being scored. A generation that
// pairs every predator with every sampled prey therefore needs only
// |distinct prey| LP solves, not LLPopSize×|sample|. Prepare performs
// that one solve and freezes the result into an immutable Prepared
// context; EvalProgramWith and EvalScoresWith evaluate any number of
// heuristics (and EvalSelectionWith any number of raw baskets) against
// it without touching the solver; Cache deduplicates bit-identical price
// vectors (elitism and GP reproduction copy genotypes verbatim) so a
// whole evaluation wave shares one solve per distinct genotype.
package bcpop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"carbon/internal/covering"
	"carbon/internal/lp"
)

// ErrNotPrepared reports an evaluation against a cache slot that was
// allocated by Slot but never filled — the telltale of a Prepare that
// failed (e.g. an injected LP fault quarantined the solve) while a
// reader still tried to pair against the slot. It surfaces as a typed,
// per-pairing error instead of a nil-pointer crash deep in the scorer.
var ErrNotPrepared = errors.New("bcpop: cache slot not prepared")

// Key returns the exact identity of a price vector: the little-endian
// IEEE-754 bits of every coordinate, concatenated. Two vectors share a
// key iff they are bit-identical — the right equality for memoizing
// exact LP results, since elitism/cloning copies vectors bit-for-bit
// while variation operators virtually never reproduce exact bits.
// (+0 and −0 get distinct keys; prices are non-negative so the
// distinction never conflates real decisions.)
func Key(price []float64) string {
	b := make([]byte, len(price)*8)
	for i, v := range price {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return string(b)
}

// Prepared is a frozen evaluation context for one pricing decision: the
// induced lower-level instance (owning its cost vector) and, when it
// came from Prepare, its LP relaxation (whose dual/x̄ slices each solve
// allocates fresh, and whose Basis later solves may start from), plus
// the price vector that induced them. Rx is nil in a context built by
// Induce. A Prepared is immutable once returned, so any number of
// workers may evaluate against it concurrently.
type Prepared struct {
	Price []float64
	In    *covering.Instance
	Rx    *covering.Relaxation
}

// Prepare solves the LP relaxation of the instance induced by price
// cold and freezes the result into a Prepared context. It is
// PrepareFrom(price, nil).
func (ev *Evaluator) Prepare(price []float64) (*Prepared, error) {
	return ev.PrepareFrom(price, nil)
}

// PrepareFrom is Prepare with the solve starting from the basis start
// (nil = cold; see lp.WarmSolver.SolveFrom). The context is a pure
// function of (price, start): which evaluator solves it, and what that
// evaluator solved before, changes no bit. Its Rx.Basis is the final
// basis, which the engine hands to the prey's children — a child's LP
// differs from its parent's only in the leader's prices, so it
// re-optimizes in a fraction of a cold solve's pivots.
//
// Each PrepareFrom is one real LP solve: it increments Metrics.LPSolves
// and Metrics.CacheMisses and adds its pivots to Metrics.LPPivots.
func (ev *Evaluator) PrepareFrom(price []float64, start *lp.Basis) (*Prepared, error) {
	if _, err := ev.mk.Costs(price, ev.costs); err != nil {
		return nil, err
	}
	rx, err := ev.relaxer.RelaxFrom(ev.costs, start)
	if err != nil {
		return nil, err
	}
	p, err := ev.Induce(price)
	if err != nil {
		return nil, err
	}
	p.Rx = rx
	if m := ev.Metrics; m != nil {
		m.LPSolves.Inc()
		m.LPPivots.Add(int64(rx.Pivots))
		m.CacheMisses.Inc()
	}
	return p, nil
}

// Induce freezes the instance induced by price into an unrelaxed
// context (Rx nil) without solving any LP. Revenue and follower cost
// need only the induced costs, so a caller that never reads LB — COBRA's
// upper level — pairs selections against it with EvalSelectionWith,
// which then reports LB and GapPct as NaN.
func (ev *Evaluator) Induce(price []float64) (*Prepared, error) {
	in, err := ev.mk.Induced(price)
	if err != nil {
		return nil, err
	}
	return &Prepared{Price: append([]float64(nil), price...), In: in}, nil
}

// EvalSelectionWith pairs a context from Prepare or Induce with an
// explicit follower selection (COBRA's raw binary vectors), repairing
// it to feasibility first. It solves no LP and charges one LL
// evaluation (Evals). It returns the result — LB and GapPct are NaN
// against an unrelaxed context — and the repaired basket.
func (ev *Evaluator) EvalSelectionWith(p *Prepared, x []bool) (Result, []bool, error) {
	if p == nil {
		return Result{}, nil, ErrNotPrepared
	}
	var t0 time.Time
	if ev.Metrics != nil {
		t0 = time.Now()
	}
	res := p.In.Repair(x)
	ev.Evals++
	out := ev.result(p.Price, p.Rx, res)
	if m := ev.Metrics; m != nil {
		m.SelEvals.Inc()
		m.observe(t0, out)
	}
	return out, res.X, nil
}

// Cache deduplicates Prepared contexts within one evaluation wave,
// keyed by exact price bits. The lifecycle each generation:
//
//	c.Reset()                      // coordinator
//	slot, fresh := c.Slot(price)   // coordinator, per individual
//	c.Fill(slot, prepared)         // workers, distinct slots in parallel
//	c.At(slot)                     // workers, read-only after the fill wave
//
// Slot and Reset must run on one goroutine; Fill may run concurrently
// on distinct slots (it only writes the slot's entry); At is safe for
// any number of concurrent readers once the fill wave has joined.
type Cache struct {
	slots   map[string]int
	entries []*Prepared
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{slots: make(map[string]int)}
}

// Reset empties the cache, keeping allocated capacity for the next wave.
func (c *Cache) Reset() {
	clear(c.slots)
	c.entries = c.entries[:0]
}

// Slot returns the cache slot for price, allocating an empty slot on
// first sight. fresh reports whether the slot is new — a miss the
// caller must Fill before reading it back with At.
func (c *Cache) Slot(price []float64) (slot int, fresh bool) {
	k := Key(price)
	if s, ok := c.slots[k]; ok {
		return s, false
	}
	s := len(c.entries)
	c.slots[k] = s
	c.entries = append(c.entries, nil)
	return s, true
}

// Fill stores the prepared context of slot s.
func (c *Cache) Fill(s int, p *Prepared) { c.entries[s] = p }

// At returns the prepared context of slot s (nil until filled). Prefer
// Get when a nil context is a reachable state — e.g. after a
// fault-quarantined Prepare — so the failure carries a typed error
// instead of surfacing as a nil-deref at the eventual read.
func (c *Cache) At(s int) *Prepared { return c.entries[s] }

// Get returns the prepared context of slot s, or ErrNotPrepared if the
// slot was allocated but never filled.
func (c *Cache) Get(s int) (*Prepared, error) {
	if s < 0 || s >= len(c.entries) {
		return nil, fmt.Errorf("bcpop: cache slot %d out of range [0,%d): %w",
			s, len(c.entries), ErrNotPrepared)
	}
	if p := c.entries[s]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("bcpop: slot %d: %w", s, ErrNotPrepared)
}

// Len returns the number of distinct price vectors seen since Reset.
func (c *Cache) Len() int { return len(c.entries) }
