package core

import (
	"encoding/json"
	"fmt"
	"io"

	"carbon/internal/telemetry"
)

// TraceSchema versions the JSONL run-log format. Readers must reject
// events from a schema they do not understand; writers stamp it on
// every line so a trace file is self-describing. v2 added the optional
// GenStats.Search block, migration labels and the done-event
// label/island/ancestry fields — all additive, so readers accept v1
// and v2 alike (TraceSchemaV1).
const (
	TraceSchema   = "carbon.trace/v2"
	TraceSchemaV1 = "carbon.trace/v1"
)

// GenStats is the per-generation snapshot delivered to observers and
// written to trace files. All population statistics refer to the
// generation that was just evaluated (the pre-breeding populations);
// the timing fields are wall-clock and therefore vary run to run, while
// everything else is deterministic per seed.
type GenStats struct {
	Label  string `json:"label,omitempty"` // Config.RunLabel, tags multi-run traces
	Island int    `json:"island"`          // island index; 0 for single-engine runs
	Gen    int    `json:"gen"`             // 1-based completed generation count

	ULEvals  int `json:"ul_evals"`  // upper-level budget consumed so far
	LLEvals  int `json:"ll_evals"`  // lower-level budget consumed so far
	ULBudget int `json:"ul_budget"` // configured upper-level budget
	LLBudget int `json:"ll_budget"` // configured lower-level budget

	BestRevenue float64 `json:"best_revenue"` // best archived leader revenue
	BestGap     float64 `json:"best_gap"`     // best archived predator fitness

	PreyBest float64 `json:"prey_best"` // population best revenue this generation
	PreyMean float64 `json:"prey_mean"`
	PreyStd  float64 `json:"prey_std"`
	PredBest float64 `json:"pred_best"` // population best predator fitness (lower = better)
	PredMean float64 `json:"pred_mean"`

	ULArchive int `json:"ul_archive"` // archive sizes after this generation
	GPArchive int `json:"gp_archive"`

	EvalNanos  int64 `json:"eval_ns"`  // wall time spent in paired evaluations
	BreedNanos int64 `json:"breed_ns"` // wall time spent breeding both populations

	// LPPivots is the number of simplex steps this generation's
	// relaxation wave took, summed over its distinct prey.
	LPPivots int `json:"lp_pivots,omitempty"`

	// Faults is the cumulative count of quarantined evaluations (see
	// Engine.Faults); 0 — and omitted from traces — on healthy runs.
	Faults int `json:"faults,omitempty"`

	// Search holds the generation's search-dynamics snapshot (trace
	// schema v2); nil in v1 traces and when the engine has no observer
	// computing it.
	Search *SearchStats `json:"search,omitempty"`
}

// MigrationStats describes one ring edge of an island-model migration.
type MigrationStats struct {
	Label    string `json:"label,omitempty"` // Config.RunLabel, tags multi-run traces
	Gen      int    `json:"gen"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	Migrants int    `json:"migrants"`
}

// Observer receives live run events. Observers must not mutate engine
// state and must be safe for concurrent use when attached to an island
// run (islands step — and therefore call OnGeneration — concurrently).
// Telemetry is strictly read-only: an observer cannot perturb the RNG
// stream, so results are identical with and without one attached.
type Observer interface {
	OnGeneration(GenStats)
	OnMigration(MigrationStats)
	OnDone(*Result)
}

// FuncObserver adapts bare functions to Observer; nil fields are
// skipped, so callers set only the hooks they need.
type FuncObserver struct {
	Generation func(GenStats)
	Migration  func(MigrationStats)
	Done       func(*Result)
}

func (f FuncObserver) OnGeneration(gs GenStats) {
	if f.Generation != nil {
		f.Generation(gs)
	}
}

func (f FuncObserver) OnMigration(ms MigrationStats) {
	if f.Migration != nil {
		f.Migration(ms)
	}
}

func (f FuncObserver) OnDone(res *Result) {
	if f.Done != nil {
		f.Done(res)
	}
}

// MultiObserver fans events out to several observers in order.
func MultiObserver(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	return multiObserver(kept)
}

type multiObserver []Observer

func (m multiObserver) OnGeneration(gs GenStats) {
	for _, o := range m {
		o.OnGeneration(gs)
	}
}

func (m multiObserver) OnMigration(ms MigrationStats) {
	for _, o := range m {
		o.OnMigration(ms)
	}
}

func (m multiObserver) OnDone(res *Result) {
	for _, o := range m {
		o.OnDone(res)
	}
}

// DoneStats is the trace-file summary of a finished run — the Result
// fields that serialize compactly (archives and trees stay out of the
// event stream; the best tree travels as its S-expression).
type DoneStats struct {
	Label       string  `json:"label,omitempty"`
	Island      int     `json:"island"`
	Gens        int     `json:"gens"`
	ULEvals     int     `json:"ul_evals"`
	LLEvals     int     `json:"ll_evals"`
	BestRevenue float64 `json:"best_revenue"`
	BestGap     float64 `json:"best_gap"`
	BestTree    string  `json:"best_tree"`

	// Ancestry is the champion predator's provenance chain (schema v2;
	// BFS order, champion first), present when lineage tracking ran.
	Ancestry []LineageRecord `json:"ancestry,omitempty"`
}

// TraceEvent is one line of a JSONL run log. Exactly one of Gen,
// Migration, Done is set, matching Event.
type TraceEvent struct {
	Schema    string          `json:"schema"`
	Event     string          `json:"event"` // "generation" | "migration" | "done"
	Gen       *GenStats       `json:"gen,omitempty"`
	Migration *MigrationStats `json:"migration,omitempty"`
	Done      *DoneStats      `json:"done,omitempty"`
}

// JSONLObserver streams run events as schema-versioned JSONL — one
// event per generation plus migration and completion records. It is
// safe for concurrent use (the underlying emitter serializes lines), so
// one observer can log a whole island run or experiment sweep.
type JSONLObserver struct {
	out *telemetry.JSONL
}

// NewJSONLObserver writes trace events to w. Every event reaches w in
// one Write as it is emitted, so a run killed mid-flight (SIGKILL, OOM) leaves a
// parseable trace missing at most the line being written — pair with
// ReadTraceLenient to read such a tail-truncated file. One small write
// per generation is noise next to a generation's evaluation cost. Call
// Close after the run when w should be closed too.
func NewJSONLObserver(w io.Writer) *JSONLObserver {
	return &JSONLObserver{out: telemetry.NewJSONL(w)}
}

func (o *JSONLObserver) OnGeneration(gs GenStats) {
	_ = o.out.Emit(TraceEvent{Schema: TraceSchema, Event: "generation", Gen: &gs})
}

func (o *JSONLObserver) OnMigration(ms MigrationStats) {
	_ = o.out.Emit(TraceEvent{Schema: TraceSchema, Event: "migration", Migration: &ms})
}

func (o *JSONLObserver) OnDone(res *Result) {
	ds := DoneStats{
		Label:       res.Label,
		Island:      res.Island,
		Gens:        res.Gens,
		ULEvals:     res.ULEvals,
		LLEvals:     res.LLEvals,
		BestRevenue: res.Best.Revenue,
		BestGap:     res.Best.GapPct,
		BestTree:    res.Best.TreeStr,
		Ancestry:    res.Ancestry,
	}
	_ = o.out.Emit(TraceEvent{Schema: TraceSchema, Event: "done", Done: &ds})
}

// Close closes the underlying writer when it is closable.
func (o *JSONLObserver) Close() error { return o.out.Close() }

// ReadTrace parses a JSONL run log written by JSONLObserver, validating
// the schema stamp and the event/payload pairing of every line. Both
// trace schema versions (v1 and v2) are accepted — v2 is a strict
// superset, so v1 events simply decode with their new fields absent.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	events, _, err := readTrace(r, false)
	return events, err
}

// ReadTraceLenient is ReadTrace for traces whose writer may have been
// killed mid-line (JSONLObserver writes each event through, so a
// SIGKILLed run leaves at most one torn final line). A corrupt final
// line missing its terminating newline is dropped and reported via
// truncated; interior corruption still fails.
func ReadTraceLenient(r io.Reader) (events []TraceEvent, truncated bool, err error) {
	return readTrace(r, true)
}

func readTrace(r io.Reader, lenient bool) ([]TraceEvent, bool, error) {
	var events []TraceEvent
	parse := func(raw json.RawMessage) error {
		var ev TraceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("core: trace line %d: %w", len(events)+1, err)
		}
		if ev.Schema != TraceSchema && ev.Schema != TraceSchemaV1 {
			return fmt.Errorf("core: trace line %d: schema %q, want %q or %q",
				len(events)+1, ev.Schema, TraceSchema, TraceSchemaV1)
		}
		switch ev.Event {
		case "generation":
			if ev.Gen == nil {
				return fmt.Errorf("core: trace line %d: generation event without payload", len(events)+1)
			}
		case "migration":
			if ev.Migration == nil {
				return fmt.Errorf("core: trace line %d: migration event without payload", len(events)+1)
			}
		case "done":
			if ev.Done == nil {
				return fmt.Errorf("core: trace line %d: done event without payload", len(events)+1)
			}
		default:
			return fmt.Errorf("core: trace line %d: unknown event %q", len(events)+1, ev.Event)
		}
		events = append(events, ev)
		return nil
	}
	if lenient {
		truncated, err := telemetry.DecodeLinesLenient(r, parse)
		if err != nil {
			return nil, false, err
		}
		return events, truncated, nil
	}
	if err := telemetry.DecodeLines(r, parse); err != nil {
		return nil, false, err
	}
	return events, false, nil
}
