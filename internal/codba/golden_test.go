package codba

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
// best price and curves of a small run, which must be the same string
// at one and two workers: every LP relaxation starts from an inherited
// basis, never from a worker's solve history. The upper level breeds
// with ga.Step, so a step that draws one random number more or less
// than Table II's moves these.
func TestRunGolden(t *testing.T) {
	mk := smallMarket(t)
	const want = "40b28d05632a662a 4031caf1feb31f7e 5158b17b87a27f18"
	for _, workers := range []int{1, 2} {
		cfg := smallConfig(7)
		cfg.Workers = workers
		res, err := Run(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%016x %016x %s", math.Float64bits(res.BestRevenue), math.Float64bits(res.BestGapPct), digest(res))
		if got != want {
			t.Errorf("workers %d: got %q, want %q", workers, got, want)
		}
	}
}
