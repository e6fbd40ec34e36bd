package nested

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// digest hashes every float and count of a Result bit for bit.
func digest(res *Result) string {
	h := sha256.New()
	for _, vs := range [][]float64{res.BestPrice, res.ULCurve.X, res.ULCurve.Y, res.GapCurve.X, res.GapCurve.Y} {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	for _, n := range []int{res.ULEvals, res.LLEvals, res.Gens} {
		binary.Write(h, binary.LittleEndian, int64(n))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRunGolden pins the best revenue and gap bits and a digest of the
// best price and curves of small runs, Chvátal and GRASP. Each run must
// give the same string at one and two workers: every LP relaxation
// starts from an inherited basis, never from a worker's solve history.
// The upper level breeds with ga.Step, so a step that draws one random
// number more or less than Table II's moves these.
func TestRunGolden(t *testing.T) {
	mk := smallMarket(t)
	grasp := smallConfig(15)
	grasp.GraspStarts = 3
	grasp.GraspAlpha = 0.3
	grasp.LLEvalBudget = grasp.ULEvalBudget * 3
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"chvatal", smallConfig(5), "40a854dc4433feb0 4020538c08353f05 1fc8b90d8a658ceb"},
		{"grasp", grasp, "40a87b3e0d30f944 40156ac624c09765 03fcf2a4869a5d85"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			c.cfg.Workers = workers
			res, err := Run(mk, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%016x %016x %s", math.Float64bits(res.BestRevenue), math.Float64bits(res.BestGapPct), digest(res))
			if got != c.want {
				t.Errorf("%s/w%d: got %q, want %q", c.name, workers, got, c.want)
			}
		}
	}
}
