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
// best price and curves of small runs, Chvátal and GRASP, at one and two
// workers. The upper level breeds with ga.Step, so a step that draws one
// random number more or less than Table II's moves these.
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
		{"chvatal/w1", smallConfig(5), "40a854dc4433feb0 4020538c08353e63 dededb195cd8e9f9"},
		{"chvatal/w2", smallConfig(5), "40a854dc4433feb0 4020538c08353e16 21d4064c4c97ce07"},
		{"grasp/w1", grasp, "40a87b3e0d30f944 40156ac624c09797 fecc136898b2775b"},
		{"grasp/w2", grasp, "40a87b3e0d30f944 40156ac624c09813 f6281628605e3e91"},
	}
	for i, c := range cases {
		c.cfg.Workers = 1 + i%2
		res, err := Run(mk, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%016x %016x %s", math.Float64bits(res.BestRevenue), math.Float64bits(res.BestGapPct), digest(res))
		if got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
