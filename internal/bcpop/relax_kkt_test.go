package bcpop

import (
	"math"
	"testing"

	"carbon/internal/covering"
	"carbon/internal/lp"
	"carbon/internal/orlib"
	"carbon/internal/rng"
)

// TestRelaxerKKTSweep certifies the relaxations the engine relies on:
// on each of the nine §V-A classes (whose covering matrices are fully
// dense) and on one block-diagonal multi-customer market (sparse), a
// stream of leader pricings through one covering.Relaxer, each started
// from the previous pricing's final basis — every other one a mutation
// of the previous, like a child of its parent — must yield
// KKT-certified optima whose LB matches a cold solve of the same LP.
func TestRelaxerKKTSweep(t *testing.T) {
	type market struct {
		name  string
		mk    *Market
		dense bool
	}
	var markets []market
	for _, cl := range orlib.PaperClasses {
		mk, err := NewMarketFromClass(cl, 0)
		if err != nil {
			t.Fatal(err)
		}
		markets = append(markets, market{cl.String(), mk, true})
	}
	multi, err := NewMultiMarket(baseInstance(t, 100, 10), 20, 3, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	markets = append(markets, market{"multi_3x100x10", multi, false})

	for _, mc := range markets {
		t.Run(mc.name, func(t *testing.T) {
			in := mc.mk.Template()
			if got := allNonzero(in.Q); got != mc.dense {
				t.Fatalf("matrix fully dense = %v, want %v", got, mc.dense)
			}
			rx, err := covering.NewRelaxer(in)
			if err != nil {
				t.Fatal(err)
			}
			rel := make([]lp.Relation, in.N()) // all GE
			lo := make([]float64, in.M())
			up := make([]float64, in.M())
			for j := range up {
				up[j] = 1
			}
			r := rng.New(17)
			bounds := mc.mk.PriceBounds()
			price := bounds.RandomVector(r)
			var start *lp.Basis
			for k := 0; k < 16; k++ {
				if k%2 == 0 {
					price = bounds.RandomVector(r)
				} else {
					price[r.Intn(len(price))] = r.Range(bounds.Lo[0], bounds.Up[0])
				}
				costs, err := mc.mk.Costs(price, nil)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := rx.RelaxFrom(costs, start)
				if err != nil {
					t.Fatal(err)
				}
				if start = warm.Basis; start == nil {
					t.Fatalf("pricing %d: no final basis", k)
				}
				p := &lp.Problem{C: costs, A: in.Q, Rel: rel, B: in.B, Lo: lo, Up: up}
				sol := &lp.Solution{
					Status:      warm.Status,
					Obj:         warm.LB,
					X:           warm.XBar,
					Dual:        warm.Dual,
					ReducedCost: reducedCosts(p, warm.Dual),
				}
				if err := lp.CheckKKT(p, sol, 1e-6); err != nil {
					t.Fatalf("pricing %d: %v", k, err)
				}
				cold, err := lp.Solve(p)
				if err != nil || cold.Status != lp.Optimal {
					t.Fatalf("pricing %d: cold solve %v %v", k, err, cold.Status)
				}
				if math.Abs(warm.LB-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
					t.Fatalf("pricing %d: warm LB %v, cold %v", k, warm.LB, cold.Obj)
				}
			}
		})
	}
}

func allNonzero(a [][]float64) bool {
	for _, row := range a {
		for _, v := range row {
			if v == 0 {
				return false
			}
		}
	}
	return true
}

// reducedCosts recomputes c − Aᵀy, so the certificate does not rest on
// numbers the solver reported about itself.
func reducedCosts(p *lp.Problem, y []float64) []float64 {
	d := append([]float64(nil), p.C...)
	for i, row := range p.A {
		for j, a := range row {
			d[j] -= y[i] * a
		}
	}
	return d
}
