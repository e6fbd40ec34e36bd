package core

import (
	"errors"
	"math"
	"regexp"
	"testing"

	"carbon/internal/bcpop"
	"carbon/internal/fault"
	"carbon/internal/orlib"
)

func islandConfig() (Config, IslandConfig) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.ULPopSize, cfg.LLPopSize = 10, 10
	cfg.ULArchiveSize, cfg.LLArchiveSize = 10, 10
	cfg.ULEvalBudget, cfg.LLEvalBudget = 800, 1600
	cfg.PreySample = 2
	ic := IslandConfig{Islands: 4, MigrateEvery: 3, Migrants: 1}
	return cfg, ic
}

func TestIslandConfigValidation(t *testing.T) {
	mutate := []func(*IslandConfig){
		func(c *IslandConfig) { c.Islands = 1 },
		func(c *IslandConfig) { c.MigrateEvery = 0 },
		func(c *IslandConfig) { c.Migrants = 0 },
	}
	for i, m := range mutate {
		ic := DefaultIslandConfig()
		m(&ic)
		if err := ic.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	def := DefaultIslandConfig()
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunIslands(t *testing.T) {
	mk := smallMarket(t)
	cfg, ic := islandConfig()
	res, err := RunIslands(mk, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerIsland) != 4 {
		t.Fatalf("%d island results", len(res.PerIsland))
	}
	totalUL, totalLL := 0, 0
	for i, r := range res.PerIsland {
		if r.Gens == 0 {
			t.Fatalf("island %d did no work", i)
		}
		totalUL += r.ULEvals
		totalLL += r.LLEvals
	}
	// The combined spend must respect the original budgets.
	if totalUL > cfg.ULEvalBudget || totalLL > cfg.LLEvalBudget {
		t.Fatalf("islands overspent: UL %d/%d, LL %d/%d",
			totalUL, cfg.ULEvalBudget, totalLL, cfg.LLEvalBudget)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations happened")
	}
	if res.Best.GapPct < 0 || len(res.Best.Price) != mk.Leaders() {
		t.Fatalf("bad merged best: %+v", res.Best)
	}
	if res.BestIsland < 0 || res.BestIsland >= 4 {
		t.Fatalf("BestIsland = %d", res.BestIsland)
	}
}

func TestRunIslandsDeterministic(t *testing.T) {
	mk := smallMarket(t)
	cfg, ic := islandConfig()
	a, err := RunIslands(mk, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIslands(mk, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Revenue != b.Best.Revenue || a.Best.GapPct != b.Best.GapPct ||
		a.Migrations != b.Migrations {
		t.Fatal("island run not reproducible")
	}
}

// TestRunIslandsRingGolden pins RunIslands on islandConfig (seed 7, 4
// islands, ring migration every 3 generations) as literals: the merged
// best, the winning island, the migration count and every island's
// generations, evaluations, revenue and gap bits. Any change to seeding,
// budget splitting, migration order or the stopping rule moves them.
func TestRunIslandsRingGolden(t *testing.T) {
	mk := smallMarket(t)
	cfg, ic := islandConfig()
	res, err := RunIslands(mk, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	const bestTree = "(- (% (+ (* c d) (* c c)) (% (% d b) (* xbar b))) (+ (mod (* (* (mod (* d d) (% xbar c)) (mod (% xbar xbar) (mod q c))) (+ (* (+ q c) (% d c)) (* (mod c b) (- d c)))) (mod d q)) (% (+ c q) (* q xbar))))"
	if bits := math.Float64bits(res.Best.Revenue); bits != 0x40ab6139a3dc8c89 {
		t.Errorf("best revenue bits %#x (%v)", bits, res.Best.Revenue)
	}
	if bits := math.Float64bits(res.Best.GapPct); bits != 0x400069b457cd3982 {
		t.Errorf("best gap bits %#x (%v)", bits, res.Best.GapPct)
	}
	if res.Best.TreeStr != bestTree {
		t.Errorf("best tree %q", res.Best.TreeStr)
	}
	if res.BestIsland != 2 || res.Migrations != 6 {
		t.Errorf("BestIsland %d, Migrations %d; want 2, 6", res.BestIsland, res.Migrations)
	}
	want := []struct {
		gens, ul, ll     int
		revBits, gapBits uint64
	}{
		{20, 200, 400, 0x40aab91d2b6e170d, 0x400caf13eed5ae40},
		{20, 200, 400, 0x40ab3f7d0352001b, 0x4012eae2f210f8e2},
		{20, 200, 400, 0x40ab6139a3dc8c89, 0x40077ef5242e7fe1},
		{20, 200, 400, 0x40aaaacb5cf9d9cd, 0x400069b457cd3982},
	}
	if len(res.PerIsland) != len(want) {
		t.Fatalf("%d island results, want %d", len(res.PerIsland), len(want))
	}
	for i, w := range want {
		r := res.PerIsland[i]
		rev, gap := math.Float64bits(r.Best.Revenue), math.Float64bits(r.Best.GapPct)
		if r.Gens != w.gens || r.ULEvals != w.ul || r.LLEvals != w.ll || rev != w.revBits || gap != w.gapBits {
			t.Errorf("island %d: (%d, %d, %d, %#x, %#x), want (%d, %d, %d, %#x, %#x)",
				i, r.Gens, r.ULEvals, r.LLEvals, rev, gap, w.gens, w.ul, w.ll, w.revBits, w.gapBits)
		}
	}
}

func TestRunIslandsBudgetTooSmall(t *testing.T) {
	mk := smallMarket(t)
	cfg, ic := islandConfig()
	cfg.ULEvalBudget = 30 // 30/4 < population size
	if _, err := RunIslands(mk, cfg, ic); err == nil {
		t.Fatal("undersized budgets accepted")
	}
}

func TestEngineStepByStep(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(3)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for e.Step() {
		steps++
		if steps > 10000 {
			t.Fatal("runaway engine")
		}
	}
	if e.Step() {
		t.Fatal("Step after exhaustion should be a no-op returning false")
	}
	res, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens != steps || e.Gens() != steps {
		t.Fatalf("generation accounting: %d vs %d", res.Gens, steps)
	}
	// Engine-driven runs must equal Run with the same config.
	direct, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Best.Revenue != res.Best.Revenue || direct.Best.TreeStr != res.Best.TreeStr {
		t.Fatal("Engine loop and Run diverged")
	}
}

// TestMigrateWrapsInjectionError is the regression test for the
// bare-error migration path: when a migrant is rejected mid-wave, the
// error must carry the island context exactly like the step-failure
// path two loops above it did all along.
func TestMigrateWrapsInjectionError(t *testing.T) {
	mkA := smallMarket(t)
	// A market with a different leader count: prey migrating from an
	// island on mkB into one on mkA have the wrong dimension.
	mkB, err := bcpop.NewMarketFromClass(orlib.Class{N: 100, M: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mkA.Leaders() == mkB.Leaders() {
		t.Fatalf("markets share leader count %d; test needs a mismatch", mkA.Leaders())
	}
	eA, err := NewEngine(mkA, smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	eB, err := NewEngine(mkB, smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	eA.island, eB.island = 0, 1
	// One generation each so both archives hold a migratable best.
	if !eA.Step() || !eB.Step() {
		t.Fatal("engines refused to step")
	}
	migrations := 0
	obs := FuncObserver{Migration: func(MigrationStats) { migrations++ }}
	ic := IslandConfig{Islands: 2, MigrateEvery: 1, Migrants: 1}
	err = migrate([]*Engine{eA, eB}, ic, obs, "", 1)
	if err == nil {
		t.Fatal("cross-market migration succeeded")
	}
	// Receivers are processed in ascending order, so island 0 rejecting
	// island 1's wrong-dimension prey is the first (and aborting) edge.
	if !regexp.MustCompile(`island 0: migrant prey from island 1`).MatchString(err.Error()) {
		t.Fatalf("error %q lacks the island context", err)
	}
	// The wave aborts at the failing edge: no migration event may be
	// reported for an edge that did not complete.
	if migrations != 0 {
		t.Fatalf("%d migration events reported for an aborted wave", migrations)
	}
}

// TestRunIslandsFailsIslandMidWave: a terminal island failure surfaces
// through RunIslands with the island index wrapped, instead of the
// surviving islands evolving on as if nothing happened.
func TestRunIslandsFailsIslandMidWave(t *testing.T) {
	mk := smallMarket(t)
	cfg, ic := islandConfig()
	// The failure window opens mid-run and never closes, so whichever
	// island crosses it first fails its whole relaxation wave (Every: 1
	// with no Limit) while the others are mid-generation.
	injected := fault.New(9).Site(fault.SiteLPSolve, fault.Rule{Every: 1, After: 120})
	cfg.LPFault = injected.Strike
	_, err := RunIslands(mk, cfg, ic)
	if err == nil {
		t.Fatal("island run survived a permanent LP outage")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
	if !regexp.MustCompile(`core: island \d+:`).MatchString(err.Error()) {
		t.Fatalf("error %q lacks the island wrap", err)
	}
}

func TestInjectValidation(t *testing.T) {
	mk := smallMarket(t)
	e, err := NewEngine(mk, smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectPrey([]float64{1}); err == nil {
		t.Fatal("wrong-dimension migrant accepted")
	}
	x, _, ok := func() ([]float64, float64, bool) {
		e.Step()
		return e.BestPrey()
	}()
	if !ok {
		t.Fatal("no best prey after a step")
	}
	if err := e.InjectPrey(x); err != nil {
		t.Fatal(err)
	}
	tr, _, ok := e.BestPredator()
	if !ok {
		t.Fatal("no best predator after a step")
	}
	if err := e.InjectPredator(tr); err != nil {
		t.Fatal(err)
	}
}
