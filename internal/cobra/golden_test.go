package cobra

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"sync/atomic"
	"testing"

	"carbon/internal/bcpop"
	"carbon/internal/orlib"
)

// paperMarket is instance 0 of n500_m30, the most expensive §V-A class.
func paperMarket(t testing.TB) *bcpop.Market {
	t.Helper()
	mk, err := bcpop.NewMarketFromClass(orlib.Class{N: 500, M: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

// cellConfig is COBRA as one run of a quick-protocol Table III cell
// (exp.Settings.cobraConfig at population 24) with the given budgets.
func cellConfig(seed uint64, ulEvals, llEvals, workers int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize, cfg.LLPopSize = 24, 24
	cfg.ULArchiveSize, cfg.LLArchiveSize = 24, 24
	cfg.ULEvalBudget, cfg.LLEvalBudget = ulEvals, llEvals
	cfg.CoevPairs = 4
	cfg.ArchiveInject = 2
	cfg.Workers = workers
	return cfg
}

func writeFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
}

func writeInts(h hash.Hash, vs ...int) {
	for _, v := range vs {
		binary.Write(h, binary.LittleEndian, int64(v))
	}
}

// revenueDigest hashes the fields of a Result that no LP bound feeds:
// everything except the gaps.
func revenueDigest(res *Result) string {
	h := sha256.New()
	writeFloats(h, res.BestPrice...)
	writeFloats(h, res.BestRevenue, res.BestLLCost)
	writeFloats(h, res.ULCurve.X...)
	writeFloats(h, res.ULCurve.Y...)
	writeFloats(h, res.GapCurve.X...)
	writeInts(h, res.Gens, res.ULEvals, res.LLEvals)
	return hex.EncodeToString(h.Sum(nil))
}

// fullDigest hashes every Result field bit for bit.
func fullDigest(res *Result) string {
	h := sha256.New()
	h.Write([]byte(revenueDigest(res)))
	writeFloats(h, res.BestGapPct, res.MinGapPct)
	writeFloats(h, res.GapCurve.Y...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRevenueGolden pins the revenue side of table-cell-scale runs. The
// digests were captured when every COBRA evaluation still solved its
// own warm-started LP; pricing the upper level without an LP and
// sharing one cold relaxation per partner price must not move them.
func TestRevenueGolden(t *testing.T) {
	mk := paperMarket(t)
	want := map[uint64]string{
		1: "515582f5401c8d43db1f38f616f2923cbcab67c6ec6711fbd2123b1439885eac",
		2: "a9a59a275b4556558fb1efce39e50eef1d3bcaa64059deb93d67b91c9c562574",
	}
	for seed, digest := range want {
		res, err := Run(mk, cellConfig(seed, 120, 240, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := revenueDigest(res); got != digest {
			t.Errorf("seed %d: revenue digest %s, want %s", seed, got, digest)
		}
	}
}

// TestRunWorkersInvariant: every solve is cold and results land by
// index, so Workers changes no bit of any Result field, gaps included.
// Two outer iterations exercise every phase, co-evolution included.
func TestRunWorkersInvariant(t *testing.T) {
	mk := paperMarket(t)
	for _, seed := range []uint64{1, 2} {
		var ref string
		for _, workers := range []int{1, 2, 3} {
			res, err := Run(mk, cellConfig(seed, 240, 480, workers))
			if err != nil {
				t.Fatal(err)
			}
			got := fullDigest(res)
			if workers == 1 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("seed %d: Workers %d digest %s differs from Workers 1 %s (BestGapPct %v)",
					seed, workers, got, ref, res.BestGapPct)
			}
		}
	}
}

// countSolves installs a counting LP hook on every evaluator of s and
// returns the counter.
func countSolves(s *state) *atomic.Int64 {
	var n atomic.Int64
	for _, ev := range s.evs {
		ev.SetLPFault(func() error { n.Add(1); return nil })
	}
	return &n
}

// TestLPSolvesPerRun pins how many LP relaxations a table-cell-scale
// run pays for: one per distinct partner price whose gap is read in an
// outer iteration, never one per evaluation.
func TestLPSolvesPerRun(t *testing.T) {
	mk := paperMarket(t)
	want := map[uint64]int64{1: 4, 2: 4}
	for seed, n := range want {
		s, err := newState(mk, cellConfig(seed, 120, 240, 1))
		if err != nil {
			t.Fatal(err)
		}
		solves := countSolves(s)
		if _, err := s.run(); err != nil {
			t.Fatal(err)
		}
		if got := solves.Load(); got != n {
			t.Errorf("seed %d: %d LP solves per run, want %d", seed, got, n)
		}
	}
}

// TestEvalUpperSolvesNoLP: the upper level reads only revenue, which
// needs the induced costs and no relaxation.
func TestEvalUpperSolvesNoLP(t *testing.T) {
	s, err := newState(paperMarket(t), cellConfig(1, 120, 240, 2))
	if err != nil {
		t.Fatal(err)
	}
	solves := countSolves(s)
	s.initPops()
	if err := s.evalUpper(); err != nil {
		t.Fatal(err)
	}
	if got := solves.Load(); got != 0 {
		t.Fatalf("evalUpper made %d LP solves, want 0", got)
	}
	for i, f := range s.fitU {
		if math.IsNaN(f) {
			t.Fatalf("individual %d has NaN revenue", i)
		}
	}
}

// TestRunReturnsLPFault: a failed relaxation ends the run with its
// error instead of a worker panic, whichever solve of the run it
// strikes — a gap record, a lower phase or a co-evolution wave.
func TestRunReturnsLPFault(t *testing.T) {
	mk := smallMarket(t)
	errLP := errors.New("injected LP fault")
	s, err := newState(mk, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	total := countSolves(s)
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		for strike := int64(1); strike <= total.Load(); strike++ {
			cfg := smallConfig(3)
			cfg.Workers = workers
			s, err := newState(mk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var n atomic.Int64
			for _, ev := range s.evs {
				ev.SetLPFault(func() error {
					if n.Add(1) == strike {
						return errLP
					}
					return nil
				})
			}
			res, err := s.run()
			if !errors.Is(err, errLP) || res != nil {
				t.Fatalf("workers %d, fault at solve %d of %d: got (%v, %v), want the injected error",
					workers, strike, total.Load(), res, err)
			}
		}
	}
}

// BenchmarkCobraRun is one table-cell-scale COBRA run on n500_m30 at
// Workers 1. lp_solves/op comes from the counting LP hook.
func BenchmarkCobraRun(b *testing.B) {
	mk := paperMarket(b)
	var solves int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newState(mk, cellConfig(uint64(i%2+1), 120, 240, 1))
		if err != nil {
			b.Fatal(err)
		}
		n := countSolves(s)
		if _, err := s.run(); err != nil {
			b.Fatal(err)
		}
		solves += n.Load()
	}
	b.ReportMetric(float64(solves)/float64(b.N), "lp_solves/op")
}
