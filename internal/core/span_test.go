package core

import (
	"io"
	"reflect"
	"testing"

	"carbon/internal/span"
)

// TestRunBitIdenticalWithSpans is the determinism gate for the tracing
// layer: a traced run must be byte-for-byte the same search as an
// untraced one. Span IDs come from the tracer's private splitmix64
// stream, never from the algorithm RNG, so everything in Result —
// champion, curves, archives — must match exactly.
func TestRunBitIdenticalWithSpans(t *testing.T) {
	mk := smallMarket(t)

	plain, err := Run(mk, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}

	traced := smallConfig(7)
	traced.Spans = span.New(span.NewWriterExporter(io.Discard))
	got, err := Run(mk, traced)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("tracing perturbed the run:\n--- plain ---\n%+v\n--- traced ---\n%+v", plain, got)
	}
}

// TestStepSpanStructure pins the per-generation span tree: one "gen"
// root per Step, the four wave children parented to it, and one
// lp.solve span per spanLPStride distinct genotypes, parented to the
// relax wave.
func TestStepSpanStructure(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(3)
	var c span.Collector
	cfg.Spans = span.New(&c)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const gens = 3
	for g := 0; g < gens; g++ {
		if !e.Step() {
			t.Fatalf("step %d: %v", g, e.Err())
		}
	}

	byID := map[string]span.Record{}
	count := map[string]int{}
	var ended []span.Record
	for _, r := range c.Records() {
		if r.EndNS == 0 {
			continue // announce record (gen, relax); its ended copy follows
		}
		ended = append(ended, r)
		byID[r.Span] = r
		count[r.Name]++
	}
	if count["gen"] != gens {
		t.Fatalf("got %d gen spans, want %d", count["gen"], gens)
	}
	for _, wave := range []string{"relax", "pred_eval", "prey_eval", "breed"} {
		if count[wave] != gens {
			t.Fatalf("got %d %q spans, want %d", count[wave], wave, gens)
		}
	}
	solvesUnder := map[string]int{} // relax span ID -> lp.solve children
	for _, r := range ended {
		switch r.Name {
		case "gen":
			if r.Parent != "" {
				t.Fatalf("gen span has parent %q (no SpanParent set)", r.Parent)
			}
			if r.Attrs["island"] != 0 {
				t.Fatalf("gen span island attr: %+v", r.Attrs)
			}
		case "relax", "pred_eval", "prey_eval", "breed":
			p, ok := byID[r.Parent]
			if !ok || p.Name != "gen" || p.Trace != r.Trace {
				t.Fatalf("wave %q not parented to a gen span: %+v", r.Name, r)
			}
			if r.EndNS < r.StartNS || r.StartNS < p.StartNS {
				t.Fatalf("wave %q outside its gen: wave %+v gen %+v", r.Name, r, p)
			}
		case "lp.solve":
			p, ok := byID[r.Parent]
			if !ok || p.Name != "relax" || p.Trace != r.Trace {
				t.Fatalf("lp.solve not parented to relax: %+v", r)
			}
			solvesUnder[r.Parent]++
		default:
			t.Fatalf("unexpected span %q", r.Name)
		}
	}
	sampled := 0
	for _, r := range ended {
		if r.Name != "relax" {
			continue
		}
		distinct, ok := r.Attrs["solves"].(int)
		if !ok {
			t.Fatalf("relax span without a solves attr: %+v", r)
		}
		want := (distinct + spanLPStride - 1) / spanLPStride
		if got := solvesUnder[r.Span]; got != want {
			t.Fatalf("relax wave of %d distinct genotypes has %d lp.solve spans, want %d", distinct, got, want)
		}
		sampled += want
	}
	if sampled == 0 {
		t.Fatal("no relax wave sampled an lp.solve span")
	}
}

// TestStepSpanParent: a SpanParent contexts every gen span into the
// caller's trace — the serve layer's attempt span becomes the parent.
func TestStepSpanParent(t *testing.T) {
	mk := smallMarket(t)
	var c span.Collector
	tr := span.New(&c)
	root := tr.Start(span.Context{}, "attempt")

	cfg := smallConfig(3)
	cfg.Spans = tr
	cfg.SpanParent = root.Context()
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal(e.Err())
	}
	root.End()

	sawGen := false
	for _, r := range c.Records() {
		if r.Name == "gen" {
			sawGen = true
			if r.Trace != root.Context().Trace.String() || r.Parent != root.Context().Span.String() {
				t.Fatalf("gen span not parented into caller trace: %+v", r)
			}
		}
	}
	if !sawGen {
		t.Fatal("no gen span recorded")
	}
}

// TestIslandMigrationSpans: the island model emits one "migration" span
// per ring migration, and traced island runs stay deterministic.
func TestIslandMigrationSpans(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(5)
	ic := IslandConfig{Islands: 2, MigrateEvery: 1, Migrants: 1, Workers: 2}

	plain, err := RunIslands(mk, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}

	var c span.Collector
	traced := cfg
	traced.Spans = span.New(&c)
	got, err := RunIslands(mk, traced, ic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("tracing perturbed the island run")
	}

	migrations := 0
	islands := map[float64]bool{}
	for _, r := range c.Records() {
		switch r.Name {
		case "migration":
			migrations++
		case "gen":
			if v, ok := r.Attrs["island"].(int); ok {
				islands[float64(v)] = true
			} else if v, ok := r.Attrs["island"].(float64); ok {
				islands[v] = true
			}
		}
	}
	if migrations != got.Migrations {
		t.Fatalf("got %d migration spans, want %d", migrations, got.Migrations)
	}
	if got.Migrations == 0 {
		t.Fatal("island run performed no migrations; test is vacuous")
	}
	if len(islands) != ic.Islands {
		t.Fatalf("gen spans tag %d distinct islands, want %d", len(islands), ic.Islands)
	}
}
