package core

import (
	"strings"
	"testing"

	"carbon/internal/telemetry"
)

// TestCacheMetricsConservationPerGeneration pins the cache accounting
// invariants generation by generation on the compiled engine path:
// every LP solve is a cache miss and vice versa (the Prepare wave is
// the only solver entry point), and every tree evaluation is a cache
// hit (the L×S predator pairings plus the U prey evaluations all run
// against Prepared contexts). A Prepare/Relax double-count regression
// breaks a delta immediately instead of hiding in whole-run totals.
func TestCacheMetricsConservationPerGeneration(t *testing.T) {
	t.Run("compiled", func(t *testing.T) {
		mk := smallMarket(t)
		cfg := smallConfig(29)
		cfg.Workers = 2
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		e, err := NewEngine(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		read := func(name string) int64 { return reg.Counter(name).Load() }
		perGen := int64(cfg.LLPopSize*cfg.EffectiveSample() + cfg.ULPopSize)
		var prevSolves, prevMisses, prevHits, prevEvals int64
		for gen := 1; gen <= 5; gen++ {
			if !e.Step() {
				t.Fatal(e.Err())
			}
			solves, misses := read("bcpop.lp_solves"), read("bcpop.cache_misses")
			hits, evals := read("bcpop.cache_hits"), read("bcpop.tree_evals")
			if dS, dM := solves-prevSolves, misses-prevMisses; dS != dM {
				t.Fatalf("gen %d: Δlp_solves %d != Δcache_misses %d", gen, dS, dM)
			}
			if dH, dE := hits-prevHits, evals-prevEvals; dH != dE {
				t.Fatalf("gen %d: Δcache_hits %d != Δtree_evals %d", gen, dH, dE)
			}
			if dE := evals - prevEvals; dE != perGen {
				t.Fatalf("gen %d: Δtree_evals %d, want L·S+U = %d", gen, dE, perGen)
			}
			if dS := solves - prevSolves; dS < 1 || dS > int64(cfg.ULPopSize) {
				t.Fatalf("gen %d: Δlp_solves %d outside [1, ULPopSize=%d]", gen, dS, cfg.ULPopSize)
			}
			prevSolves, prevMisses, prevHits, prevEvals = solves, misses, hits, evals
		}
	})
}

// TestRestoreRejectsHostileTrees covers the checkpoint decode path: a
// state carrying a hostile predator encoding — oversize (513 nodes) or
// referencing an unknown terminal — must make Restore return an error,
// never panic. serve's manager turns that error into checkpoint
// quarantine + fresh start (TestHostileCheckpointQuarantined).
func TestRestoreRejectsHostileTrees(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(7)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal(e.Err())
	}
	// 256 "+" ops over 257 "c" leaves: 513 nodes, one past gp.MaxNodes.
	oversize := strings.Repeat("(+ ", 256) + "c" + strings.Repeat(" c)", 256)
	hostile := map[string]string{
		"oversize tree":    oversize,
		"unknown terminal": "(+ c zz)",
		"unknown operator": "(exp c c)",
		"truncated":        "(+ c",
	}
	for name, src := range hostile {
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		st.Predators[0] = src
		if _, err := Restore(mk, cfg, st); err == nil {
			t.Errorf("%s: Restore accepted a hostile predator encoding", name)
		}
	}
	// The same hostile encodings in the GP archive must be rejected too.
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.GPArchT) == 0 {
		t.Fatal("snapshot has no archived trees")
	}
	st.GPArchT[0] = oversize
	if _, err := Restore(mk, cfg, st); err == nil {
		t.Error("Restore accepted an oversize archived tree")
	}
}
