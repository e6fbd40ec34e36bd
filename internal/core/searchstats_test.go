package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

var knownOps = map[string]bool{
	"init": true, "restore": true, "elite": true, "sbx": true,
	"polymut": true, "de": true, "gp_cross": true, "gp_mut": true,
	"gp_repro": true, "gp_point": true, "migrant": true,
}

// TestSearchStatsEmitted checks the tentpole end to end: every observed
// generation carries a well-formed SearchStats block, and from the
// second generation on the operator tallies and selection-pressure
// correlations are populated.
func TestSearchStatsEmitted(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(9)
	var got []GenStats
	cfg.Observer = FuncObserver{Generation: func(gs GenStats) { got = append(got, gs) }}
	if _, err := Run(mk, cfg); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("run too short for the test: %d generations", len(got))
	}
	for i, gs := range got {
		st := gs.Search
		if st == nil {
			t.Fatalf("generation %d has no SearchStats", gs.Gen)
		}
		if st.PreyDiversity < 0 || st.PreyDiversity > 1 || st.PreyEntropy < 0 || st.PreyEntropy > 1 {
			t.Fatalf("gen %d diversity out of range: %+v", gs.Gen, st)
		}
		if st.PredSizeMean <= 0 || st.PredSizeMax <= 0 || st.PredSizeMean > float64(st.PredSizeMax) {
			t.Fatalf("gen %d tree sizes implausible: %+v", gs.Gen, st)
		}
		if st.PredDepthMean > float64(st.PredDepthMax) {
			t.Fatalf("gen %d tree depths implausible: %+v", gs.Gen, st)
		}
		if !(st.GapMin <= st.GapP10 && st.GapP10 <= st.GapP50 &&
			st.GapP50 <= st.GapP90 && st.GapP90 <= st.GapMax) {
			t.Fatalf("gen %d gap quantiles disordered: %+v", gs.Gen, st)
		}
		if st.PreySelCorr < -1 || st.PreySelCorr > 1 || st.PredSelCorr < -1 || st.PredSelCorr > 1 {
			t.Fatalf("gen %d correlation out of [-1,1]: %+v", gs.Gen, st)
		}
		if st.ULArchiveAdds < 0 || st.GPArchiveAdds < 0 {
			t.Fatalf("gen %d negative archive churn: %+v", gs.Gen, st)
		}
		if i == 0 {
			// First observed generation has no parent fitness yet.
			if len(st.Ops) != 0 {
				t.Fatalf("gen 1 tallied operators without parents: %+v", st.Ops)
			}
			if st.ULArchiveAdds == 0 {
				t.Fatal("first generation filled no archive slots")
			}
			continue
		}
		if len(st.Ops) == 0 {
			t.Fatalf("gen %d tallied no operators", gs.Gen)
		}
		for _, op := range st.Ops {
			if !knownOps[op.Op] {
				t.Fatalf("gen %d unknown operator %q", gs.Gen, op.Op)
			}
			if op.Count <= 0 || op.Improved < 0 || op.Improved > op.Count {
				t.Fatalf("gen %d operator tally implausible: %+v", gs.Gen, op)
			}
		}
	}
}

// TestSearchStatsDeterministic: two identical instrumented runs must
// produce byte-identical SearchStats streams — the introspection layer
// rides the same determinism contract as the engine.
func TestSearchStatsDeterministic(t *testing.T) {
	mk := smallMarket(t)
	collect := func() []byte {
		cfg := smallConfig(23)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		cfg.Observer = FuncObserver{Generation: func(gs GenStats) {
			if err := enc.Encode(gs.Search); err != nil {
				t.Fatal(err)
			}
		}}
		if _, err := Run(mk, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := collect(), collect()
	if !bytes.Equal(a, b) {
		t.Fatalf("SearchStats streams diverged:\n%s\n---\n%s", a, b)
	}
}

// TestChampionAncestry: the champion predator's provenance must be
// reconstructable — champion first, expression attached, every parent
// edge pointing at an older record.
func TestChampionAncestry(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(31)
	var trace bytes.Buffer
	obs := NewJSONLObserver(&trace)
	cfg.Observer = obs
	res, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ancestry) == 0 {
		t.Fatal("observed run produced no ancestry")
	}
	champ := res.Ancestry[0]
	if champ.Expr == "" {
		t.Fatalf("champion record has no expression: %+v", champ)
	}
	byID := map[uint64]LineageRecord{}
	for _, rec := range res.Ancestry {
		if !knownOps[rec.Op] {
			t.Fatalf("ancestry record with unknown op %q", rec.Op)
		}
		byID[rec.ID] = rec
	}
	for _, rec := range res.Ancestry {
		for _, p := range rec.Parents {
			parent, ok := byID[p]
			if !ok {
				continue // beyond the maxAncestry window
			}
			if parent.ID >= rec.ID {
				t.Fatalf("parent %d not older than child %d", parent.ID, rec.ID)
			}
			if parent.Gen > rec.Gen {
				t.Fatalf("parent from gen %d, child from gen %d", parent.Gen, rec.Gen)
			}
		}
	}
	// The ancestry also travels in the trace's done event.
	events, err := ReadTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var done *DoneStats
	for _, ev := range events {
		if ev.Event == "done" {
			done = ev.Done
		}
	}
	if done == nil || len(done.Ancestry) != len(res.Ancestry) {
		t.Fatalf("done event ancestry mismatch: %+v", done)
	}
	if done.Ancestry[0].Expr != champ.Expr {
		t.Fatal("done event champion expression disagrees with Result")
	}
}

// TestTraceVersionSniffing: the reader accepts v1 and v2 events in one
// stream (v1 files predate SearchStats) and still rejects unknown
// schemas.
func TestTraceVersionSniffing(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	v1 := TraceEvent{Schema: TraceSchemaV1, Event: "generation", Gen: &GenStats{Gen: 1, Label: "old"}}
	v2 := TraceEvent{Schema: TraceSchema, Event: "generation",
		Gen: &GenStats{Gen: 2, Label: "new", Search: &SearchStats{PreyDiversity: 0.5}}}
	doneV1 := TraceEvent{Schema: TraceSchemaV1, Event: "done", Done: &DoneStats{Gens: 2}}
	for _, ev := range []TraceEvent{v1, v2, doneV1} {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	events, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	if events[0].Gen.Search != nil {
		t.Fatal("v1 event grew a Search block")
	}
	if events[1].Gen.Search == nil || events[1].Gen.Search.PreyDiversity != 0.5 {
		t.Fatal("v2 Search block lost in round-trip")
	}
	if _, err := ReadTrace(strings.NewReader(`{"schema":"carbon.trace/v3","event":"done","done":{}}` + "\n")); err == nil {
		t.Fatal("future schema accepted")
	}
}

// TestReadTraceLenientTruncated: a trace cut mid-line (SIGKILLed run)
// must parse leniently up to the cut; the strict reader must refuse it.
func TestReadTraceLenientTruncated(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(13)
	var buf bytes.Buffer
	obs := NewJSONLObserver(&buf)
	cfg.Observer = obs
	res, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	cut := whole[:len(whole)-40] // tear the final (done) line mid-JSON

	events, truncated, err := ReadTraceLenient(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("torn tail not reported")
	}
	if len(events) != res.Gens {
		t.Fatalf("lenient read kept %d events, want the %d whole generations", len(events), res.Gens)
	}
	if _, err := ReadTrace(bytes.NewReader(cut)); err == nil {
		t.Fatal("strict reader accepted a torn trace")
	}
	// An intact trace reads identically through both paths.
	strict, err := ReadTrace(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	lenient, truncated, err := ReadTraceLenient(bytes.NewReader(whole))
	if err != nil || truncated {
		t.Fatalf("lenient read of intact trace: truncated=%v err=%v", truncated, err)
	}
	if !reflect.DeepEqual(strict, lenient) {
		t.Fatal("strict and lenient reads of an intact trace disagree")
	}
}

// TestIslandEventsFullyLabeled: with a shared observer on an island
// run, every event — generation, migration, done — must carry the run
// label, and generation events must cover all islands.
func TestIslandEventsFullyLabeled(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(17)
	cfg.ULEvalBudget, cfg.LLEvalBudget = 400, 1200
	cfg.RunLabel = "archipelago"
	var trace bytes.Buffer
	obs := NewJSONLObserver(&trace)
	cfg.Observer = obs
	ic := IslandConfig{Islands: 2, MigrateEvery: 2, Migrants: 1}
	res, err := RunIslands(mk, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	islands := map[int]bool{}
	var migrations, dones int
	for _, ev := range events {
		switch ev.Event {
		case "generation":
			if ev.Gen.Label != "archipelago" {
				t.Fatalf("generation event unlabeled: %+v", ev.Gen)
			}
			if ev.Gen.Search == nil {
				t.Fatalf("island generation event missing SearchStats: %+v", ev.Gen)
			}
			islands[ev.Gen.Island] = true
		case "migration":
			if ev.Migration.Label != "archipelago" {
				t.Fatalf("migration event unlabeled: %+v", ev.Migration)
			}
			migrations++
		case "done":
			if ev.Done.Label != "archipelago" {
				t.Fatalf("done event unlabeled: %+v", ev.Done)
			}
			if ev.Done.Island != res.BestIsland {
				t.Fatalf("done event from island %d, best island %d", ev.Done.Island, res.BestIsland)
			}
			dones++
		}
	}
	for i := 0; i < ic.Islands; i++ {
		if !islands[i] {
			t.Fatalf("island %d emitted no labeled generation events", i)
		}
	}
	if migrations == 0 || dones != 1 {
		t.Fatalf("migrations=%d dones=%d", migrations, dones)
	}
}

// TestSnapshotRestoreWithStats: the restore bit-identity contract must
// survive with the introspection layer on — stats consume no RNG, so an
// interrupted instrumented run continues exactly like an uninterrupted
// one.
func TestSnapshotRestoreWithStats(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(19)
	obs := FuncObserver{Generation: func(GenStats) {}}
	cfg.Observer = obs

	ref, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ref.Step() {
	}
	refRes, err := ref.Result()
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && e.Step(); i++ {
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(mk, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	for e2.Step() {
	}
	res, err := e2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultKey(refRes), resultKey(res)) {
		t.Fatalf("restored instrumented run diverged:\nref:      %+v\nrestored: %+v",
			resultKey(refRes), resultKey(res))
	}
	// The restored engine's lineage restarts from "restore" roots but
	// must still crown a champion.
	if len(res.Ancestry) == 0 {
		t.Fatal("restored run produced no ancestry")
	}
}

// TestSearchStatsPredatorSharing pins the predator-sharing fields on a
// seeded run: PredDistinct counts the distinct trees of the population
// each generation evaluated, and ForestOps the distinct operator nodes
// of its hash-consed forest, never more than the population's summed
// operator nodes (one "(" each in the S-expression).
func TestSearchStatsPredatorSharing(t *testing.T) {
	cfg := smallConfig(9)
	var got []*SearchStats
	cfg.Observer = FuncObserver{Generation: func(gs GenStats) { got = append(got, gs.Search) }}
	e, err := NewEngine(smallMarket(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var distinct, opNodes []int
	for {
		seen := map[string]bool{}
		ops := 0
		for _, tr := range e.predators {
			src := tr.String(e.set)
			seen[src] = true
			ops += strings.Count(src, "(")
		}
		if !e.Step() {
			break
		}
		distinct, opNodes = append(distinct, len(seen)), append(opNodes, ops)
	}
	want := [][2]int{{16, 75}, {16, 53}, {16, 37}, {15, 23}, {11, 18}, {15, 21},
		{14, 23}, {14, 25}, {13, 17}, {10, 11}, {10, 12}, {12, 13}}
	if len(got) != len(want) {
		t.Fatalf("%d generations observed, want %d", len(got), len(want))
	}
	for i, st := range got {
		if st.PredDistinct != distinct[i] {
			t.Fatalf("gen %d: pred_distinct = %d, population has %d distinct trees", i+1, st.PredDistinct, distinct[i])
		}
		if st.ForestOps > opNodes[i] {
			t.Fatalf("gen %d: forest_ops = %d above the population's %d operator nodes", i+1, st.ForestOps, opNodes[i])
		}
		if g := [2]int{st.PredDistinct, st.ForestOps}; g != want[i] {
			t.Fatalf("gen %d: (pred_distinct, forest_ops) = %v, want %v", i+1, g, want[i])
		}
	}
}
