package lp

import (
	"math"
	"testing"

	"carbon/internal/rng"
)

func TestNegativeRHSPhase1Signs(t *testing.T) {
	// x1 - x2 = -3 with x >= 0 forces a negative phase-1 residual,
	// exercising the sign handling of the artificial basis inverse.
	p := &Problem{
		C:   []float64{1, 1},
		A:   [][]float64{{1, -1}},
		Rel: []Relation{EQ},
		B:   []float64{-3},
	}
	sol := requireOptimal(t, p, 3)
	if math.Abs(sol.X[1]-3) > 1e-7 {
		t.Fatalf("x = %v, want (0,3)", sol.X)
	}
}

func TestNegativeRHSLERow(t *testing.T) {
	// -x <= -2  ≡  x >= 2.
	p := &Problem{
		C:   []float64{1},
		A:   [][]float64{{-1}},
		Rel: []Relation{LE},
		B:   []float64{-2},
	}
	requireOptimal(t, p, 2)
}

func TestCrashBasisSkipsPhase1(t *testing.T) {
	// A covering LP where x=1 is feasible: the all-upper crash basis
	// should produce far fewer iterations than problem size would
	// suggest, and identical answers either way.
	r := rng.New(21)
	p := randomCoveringLP(r, 200, 10)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if err := CheckKKT(p, sol, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestWarmSolverMatchesColdSolves(t *testing.T) {
	r := rng.New(33)
	p := randomCoveringLP(r, 120, 10)
	ws, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		c := make([]float64, len(p.C))
		for j := range c {
			c[j] = r.Range(1, 100)
		}
		warm, err := ws.SolveWithCosts(c)
		if err != nil {
			t.Fatal(err)
		}
		cold := mustSolve(t, &Problem{C: c, A: p.A, Rel: p.Rel, B: p.B, Lo: p.Lo, Up: p.Up})
		if warm.Status != Optimal || cold.Status != Optimal {
			t.Fatalf("trial %d: statuses %v/%v", trial, warm.Status, cold.Status)
		}
		if math.Abs(warm.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("trial %d: warm obj %v != cold obj %v", trial, warm.Obj, cold.Obj)
		}
		pc := &Problem{C: c, A: p.A, Rel: p.Rel, B: p.B, Lo: p.Lo, Up: p.Up}
		if err := CheckKKT(pc, warm, 1e-6); err != nil {
			t.Fatalf("trial %d warm KKT: %v", trial, err)
		}
	}
}

func TestWarmSolverInfeasibleSticks(t *testing.T) {
	p := &Problem{
		C:   []float64{1},
		A:   [][]float64{{1}, {1}},
		Rel: []Relation{GE, LE},
		B:   []float64{2, 1},
	}
	ws, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		sol, err := ws.SolveWithCosts([]float64{float64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Infeasible {
			t.Fatalf("trial %d: status %v, want infeasible", trial, sol.Status)
		}
	}
}

func TestWarmSolverRejectsBadCosts(t *testing.T) {
	p := &Problem{C: []float64{1}, A: [][]float64{{1}}, Rel: []Relation{GE}, B: []float64{1}}
	ws, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.SolveWithCosts([]float64{1, 2}); err == nil {
		t.Fatal("wrong-length costs accepted")
	}
	if _, err := ws.SolveWithCosts([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN cost accepted")
	}
}

func TestWarmSolverSolutionsIndependent(t *testing.T) {
	r := rng.New(55)
	p := randomCoveringLP(r, 30, 5)
	ws, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	c1 := make([]float64, len(p.C))
	c2 := make([]float64, len(p.C))
	for j := range c1 {
		c1[j] = r.Range(1, 100)
		c2[j] = r.Range(1, 100)
	}
	s1, _ := ws.SolveWithCosts(c1)
	x1 := append([]float64(nil), s1.X...)
	if _, err := ws.SolveWithCosts(c2); err != nil {
		t.Fatal(err)
	}
	for j := range x1 {
		if s1.X[j] != x1[j] {
			t.Fatal("earlier Solution mutated by later solve")
		}
	}
}

func BenchmarkWarmResolve500x30(b *testing.B) {
	r := rng.New(77)
	benchWarmResolve(b, r, randomCoveringLP(r, 500, 30))
}

// BenchmarkWarmResolveDense500x30 is the same stream on a fully dense
// matrix, the shape of the paper's instances: the dense-slab path.
func BenchmarkWarmResolveDense500x30(b *testing.B) {
	r := rng.New(77)
	benchWarmResolve(b, r, denseCoveringLP(r, 500, 30))
}

func benchWarmResolve(b *testing.B, r *rng.Rand, p *Problem) {
	ws, err := NewWarmSolver(p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ws.SolveWithCosts(p.C); err != nil {
		b.Fatal(err)
	}
	// Perturb a small leader-sized block of costs each resolve, like a
	// BCPOP pricing move.
	c := append([]float64(nil), p.C...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 50; j++ {
			c[j] = r.Range(1, 100)
		}
		sol, err := ws.SolveWithCosts(c)
		if err != nil || sol.Status != Optimal {
			b.Fatalf("resolve failed: %v %v", err, sol.Status)
		}
	}
}
