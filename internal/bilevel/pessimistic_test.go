package bilevel

import (
	"math"
	"testing"

	"carbon/internal/rng"
)

// indifferentFollower builds a program where the follower does not care
// (Gy = 0) and is feasible on y ∈ [0, 10−x]: the optimistic leader gets
// to choose y, the pessimistic one suffers the worst choice.
// Leader: min −x + y, x ∈ [0, 5].
// Optimistic: y = 0, best x = 5 → F = −5.
// Pessimistic: y = 10−x, F = −x + 10 − x = 10 − 2x → x = 5, F = 0.
func indifferentFollower() *Linear1D {
	return &Linear1D{
		Fx: -1, Fy: 1,
		Gy:  0,
		LL:  []LinCon{{A: 1, B: 1, C: 10}}, // x + y ≤ 10
		XLo: 0, XHi: 5,
	}
}

func TestRationalReactionSetStrictFollower(t *testing.T) {
	p := MershaDempe()
	rs := p.RationalReactionSet(6)
	if !rs.Feasible || rs.YLo != rs.YHi || rs.YLo != 12 {
		t.Fatalf("strict follower should have singleton P(x): %+v", rs)
	}
}

func TestRationalReactionSetIndifferent(t *testing.T) {
	p := indifferentFollower()
	rs := p.RationalReactionSet(3)
	if !rs.Feasible || rs.YLo != 0 || math.Abs(rs.YHi-7) > 1e-9 {
		t.Fatalf("P(3) = %+v, want [0,7]", rs)
	}
}

func TestRationalReactionSetIndifferentUnbounded(t *testing.T) {
	p := &Linear1D{Gy: 0, LL: nil, XLo: 0, XHi: 1}
	if rs := p.RationalReactionSet(0.5); rs.Feasible {
		t.Fatalf("unbounded indifference should not be feasible: %+v", rs)
	}
}

func TestOptimisticVsPessimistic(t *testing.T) {
	p := indifferentFollower()
	opt, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.F-(-5)) > 1e-6 || math.Abs(opt.X-5) > 1e-6 || math.Abs(opt.Y) > 1e-6 {
		t.Fatalf("optimistic = %+v, want (5, 0, -5)", opt)
	}
	pess, err := p.SolvePessimistic()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pess.F-0) > 1e-6 || math.Abs(pess.X-5) > 1e-6 || math.Abs(pess.Y-5) > 1e-6 {
		t.Fatalf("pessimistic = %+v, want (5, 5, 0)", pess)
	}
}

func TestPessimisticEqualsOptimisticForStrictFollower(t *testing.T) {
	// With a singleton P(x) the two positions coincide.
	p := MershaDempe()
	opt, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pess, err := p.SolvePessimistic()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.F-pess.F) > 1e-6 {
		t.Fatalf("strict follower: optimistic %v != pessimistic %v", opt.F, pess.F)
	}
}

func TestPessimisticNeverBeatsOptimistic(t *testing.T) {
	// F_pess ≥ F_opt on every random solvable program.
	r := rng.New(131)
	checked := 0
	for trial := 0; trial < 80; trial++ {
		p := randomScalarBilevel(r)
		if r.Bool(0.3) {
			p.Gy = 0 // force indifference sometimes
		}
		opt, err1 := p.Solve()
		pess, err2 := p.SolvePessimistic()
		if err1 != nil || err2 != nil {
			continue
		}
		if pess.F < opt.F-1e-6 {
			t.Fatalf("trial %d: pessimistic %v beats optimistic %v (%+v)",
				trial, pess.F, opt.F, p)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d solvable programs", checked)
	}
}

func TestPessimisticDiscardsDangerousX(t *testing.T) {
	// An indifferent follower whose P(x) sticks out of the UL region
	// makes x pessimistically unusable even though the optimistic leader
	// would happily use it. UL: y ≤ 4; follower indifferent on
	// [0, 10−x]. For x < 6, P(x) contains points y > 4 → pessimistically
	// infeasible; for x ∈ [6, 5]... XHi=5 < 6, so nothing is feasible.
	p := indifferentFollower()
	p.UL = []LinCon{{A: 0, B: 1, C: 4}} // y ≤ 4
	if _, err := p.Solve(); err != nil {
		t.Fatalf("optimistic should be solvable: %v", err)
	}
	if _, err := p.SolvePessimistic(); err == nil {
		t.Fatal("pessimistic should be infeasible when P(x) always leaves the UL region")
	}
}

func TestPessimisticEmptyBox(t *testing.T) {
	p := &Linear1D{XLo: 1, XHi: 0}
	if _, err := p.SolvePessimistic(); err == nil {
		t.Fatal("empty box accepted")
	}
}
