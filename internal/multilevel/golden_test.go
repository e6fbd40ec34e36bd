package multilevel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"carbon/internal/orlib"
)

// chainDigest hashes every float, count and program of a ChainResult.
func chainDigest(res *ChainResult) string {
	h := sha256.New()
	for _, vs := range [][]float64{res.BestPriceA, res.BestRevenues, res.LeaderCurve.X, res.LeaderCurve.Y, res.GapCurve.X, res.GapCurve.Y} {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	binary.Write(h, binary.LittleEndian, [2]int64{int64(res.Gens), int64(res.Evals)})
	h.Write([]byte(strings.Join(res.BestPolicies, "\n") + "\n" + res.BestCust))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRunChainGolden pins RunChain at depth 1 (the tri-level run) and
// depth 2: the leader's revenue and the gap bits, the evolved customer
// heuristic, and a digest of everything else. All three kinds of
// population breed with the shared ga and gp steps.
func TestRunChainGolden(t *testing.T) {
	in, err := orlib.GenerateCovering(orlib.Class{N: 60, M: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		groups []int
		seed   uint64
		want   string
	}{
		{[]int{6, 6}, 3, "40a15db591b70797 3ff237d30237feb3 xbar 08e6133355ea524a"},
		{[]int{6, 6, 6}, 4, "40937841a4a37e12 401bcf9f8683b0bc (% (% (% xbar c) c) c) ebb51ea429fe7afc"},
	}
	for _, c := range cases {
		cm, err := NewChainMarket(in, c.groups)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Seed = c.seed
		cfg.PopSize = 8
		cfg.Budget = 900
		res, err := RunChain(cm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%016x %016x %s %s", math.Float64bits(res.BestRevenues[0]), math.Float64bits(res.BestGapPct), res.BestCust, chainDigest(res))
		if got != c.want {
			t.Errorf("depth %d: got %q, want %q", len(c.groups)-1, got, c.want)
		}
	}
}
