// Package tracestat analyzes carbon.trace JSONL run logs — the files
// JSONLObserver emits and cmd/carbonstat reads. It groups interleaved
// events into per-run streams (keyed label#island), summarizes
// convergence and search dynamics, flags pathological runs (stagnation,
// bloat explosion, co-evolutionary disengagement) and diffs two traces.
// Both trace schema versions are accepted; v1 traces simply have no
// search-dynamics blocks, and every consumer here degrades gracefully
// to the fields the trace actually carries.
package tracestat

import (
	"fmt"
	"io"
	"os"
	"sort"

	"carbon/internal/core"
)

// Run is one engine's event stream extracted from a trace: the
// generation snapshots in order, the migrations it initiated, and its
// done event when the trace has one.
type Run struct {
	Label      string
	Island     int
	Gens       []core.GenStats
	Migrations []core.MigrationStats
	Done       *core.DoneStats
}

// Key is the run's identity inside a multiplexed trace: its label and
// island index.
func (r *Run) Key() string { return fmt.Sprintf("%s#%d", r.Label, r.Island) }

// HasSearch reports whether any generation carries a v2 search block.
func (r *Run) HasSearch() bool {
	for _, gs := range r.Gens {
		if gs.Search != nil {
			return true
		}
	}
	return false
}

// File is a parsed trace: runs in order of first appearance, plus
// whether a torn final line was dropped (tail-truncated file from a
// killed run).
type File struct {
	Runs      []*Run
	Truncated bool
}

// Run returns the named run (label#island key), or nil.
func (f *File) Run(key string) *Run {
	for _, r := range f.Runs {
		if r.Key() == key {
			return r
		}
	}
	return nil
}

// Load parses a trace stream leniently (a truncated tail is tolerated
// and reported via File.Truncated) and demultiplexes it into runs.
// Done events carry their own label/island in v2; in v1 traces they are
// attributed to the sole run when the trace has exactly one, and
// dropped otherwise (v1 gave no way to attribute them).
func Load(r io.Reader) (*File, error) {
	events, truncated, err := core.ReadTraceLenient(r)
	if err != nil {
		return nil, err
	}
	f := &File{Truncated: truncated}
	byKey := map[string]*Run{}
	get := func(label string, island int) *Run {
		key := fmt.Sprintf("%s#%d", label, island)
		run, ok := byKey[key]
		if !ok {
			run = &Run{Label: label, Island: island}
			byKey[key] = run
			f.Runs = append(f.Runs, run)
		}
		return run
	}
	for _, ev := range events {
		switch ev.Event {
		case "generation":
			run := get(ev.Gen.Label, ev.Gen.Island)
			run.Gens = append(run.Gens, *ev.Gen)
		case "migration":
			run := get(ev.Migration.Label, ev.Migration.From)
			run.Migrations = append(run.Migrations, *ev.Migration)
		case "done":
			if ev.Schema == core.TraceSchemaV1 {
				if len(f.Runs) == 1 {
					d := *ev.Done
					f.Runs[0].Done = &d
				}
				continue
			}
			run := get(ev.Done.Label, ev.Done.Island)
			d := *ev.Done
			run.Done = &d
		}
	}
	return f, nil
}

// LoadFile is Load over a file path.
func LoadFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	f, err := Load(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Summary condenses one run for the per-run table. Search-derived
// fields are zero and HasSearch false for v1 traces.
type Summary struct {
	Key         string
	Gens        int
	ULEvals     int
	LLEvals     int
	BestRevenue float64
	BestGap     float64
	Migrations  int
	Done        bool

	HasSearch      bool
	FinalDiversity float64
	FinalEntropy   float64
	FinalSizeMean  float64
	FinalGapP50    float64

	Anomalies []Anomaly
}

// Summarize builds the run's Summary, including anomaly detection.
func (r *Run) Summarize() Summary {
	s := Summary{
		Key:        r.Key(),
		Gens:       len(r.Gens),
		Migrations: len(r.Migrations),
		Done:       r.Done != nil,
		HasSearch:  r.HasSearch(),
		Anomalies:  r.DetectAnomalies(),
	}
	if len(r.Gens) == 0 {
		return s
	}
	last := r.Gens[len(r.Gens)-1]
	s.ULEvals, s.LLEvals = last.ULEvals, last.LLEvals
	s.BestRevenue, s.BestGap = last.BestRevenue, last.BestGap
	if r.Done != nil {
		s.BestRevenue, s.BestGap = r.Done.BestRevenue, r.Done.BestGap
	}
	if st := last.Search; st != nil {
		s.FinalDiversity = st.PreyDiversity
		s.FinalEntropy = st.PreyEntropy
		s.FinalSizeMean = st.PredSizeMean
		s.FinalGapP50 = st.GapP50
	}
	return s
}

// Anomaly flags one pathological pattern in a run's dynamics.
type Anomaly struct {
	Kind   string // "stagnation" | "bloat" | "disengagement"
	Gen    int    // generation where the pattern starts
	Detail string
}

// Detection thresholds. Deliberately conservative: an anomaly flag
// should mean "look at this run", not fire on every healthy plateau.
const (
	// stagnationFrac flags a run whose best revenue last improved in
	// the first (1-frac) of its generations (minimum stagnationMinGens
	// stalled generations so short runs don't trip it).
	stagnationFrac    = 0.5
	stagnationMinGens = 10
	// bloatFactor flags mean predator size growing past this multiple
	// of its minimum over the run.
	bloatFactor = 3.0
	// disengageGens flags this many consecutive generations whose
	// %-gap spread (P90-P10) is below disengageSpread while the median
	// gap stays above disengageFloor: every predator scores the same
	// but none is good — selection has lost its gradient.
	disengageGens   = 5
	disengageSpread = 1e-9
	disengageFloor  = 1e-6
)

// DetectAnomalies scans the run for stagnation, bloat explosion and
// co-evolutionary disengagement. Search-based detectors need v2 blocks
// and report nothing on v1 traces.
func (r *Run) DetectAnomalies() []Anomaly {
	var out []Anomaly
	n := len(r.Gens)
	if n == 0 {
		return nil
	}

	// Stagnation: last improvement of the best archived revenue.
	lastImprove := 0
	best := r.Gens[0].BestRevenue
	for i := 1; i < n; i++ {
		if r.Gens[i].BestRevenue > best {
			best = r.Gens[i].BestRevenue
			lastImprove = i
		}
	}
	if stalled := n - 1 - lastImprove; stalled >= stagnationMinGens &&
		float64(stalled) >= stagnationFrac*float64(n) {
		out = append(out, Anomaly{
			Kind: "stagnation", Gen: r.Gens[lastImprove].Gen,
			Detail: fmt.Sprintf("best revenue flat for final %d of %d generations", stalled, n),
		})
	}

	// Bloat explosion: mean tree size vs its running minimum.
	minSize, minGen := 0.0, 0
	for _, gs := range r.Gens {
		st := gs.Search
		if st == nil || st.PredSizeMean <= 0 {
			continue
		}
		if minSize == 0 || st.PredSizeMean < minSize {
			minSize, minGen = st.PredSizeMean, gs.Gen
		}
		if minSize > 0 && st.PredSizeMean > bloatFactor*minSize {
			out = append(out, Anomaly{
				Kind: "bloat", Gen: gs.Gen,
				Detail: fmt.Sprintf("mean tree size %.1f is %.1fx the gen-%d minimum %.1f",
					st.PredSizeMean, st.PredSizeMean/minSize, minGen, minSize),
			})
			break
		}
	}

	// Disengagement: the paired-gap distribution collapses to a point
	// away from zero for a sustained stretch.
	streak, start := 0, 0
	for _, gs := range r.Gens {
		st := gs.Search
		if st == nil {
			streak = 0
			continue
		}
		if st.GapP90-st.GapP10 < disengageSpread && st.GapP50 > disengageFloor {
			if streak == 0 {
				start = gs.Gen
			}
			streak++
			if streak == disengageGens {
				out = append(out, Anomaly{
					Kind: "disengagement", Gen: start,
					Detail: fmt.Sprintf("%%-gap spread below %.0e for %d straight generations (median %.3g)",
						disengageSpread, streak, st.GapP50),
				})
				break
			}
		} else {
			streak = 0
		}
	}

	return out
}

// TableRow is one line of a convergence/diversity table.
type TableRow struct {
	Gen         int
	BestRevenue float64
	BestGap     float64
	Diversity   float64
	Entropy     float64
	SizeMean    float64
	GapP50      float64
	ULArchAdds  int
	GPArchAdds  int
}

// Table samples the run every 'every' generations (plus the final one).
func (r *Run) Table(every int) []TableRow {
	if every < 1 {
		every = 1
	}
	var rows []TableRow
	for i, gs := range r.Gens {
		if i%every != 0 && i != len(r.Gens)-1 {
			continue
		}
		row := TableRow{Gen: gs.Gen, BestRevenue: gs.BestRevenue, BestGap: gs.BestGap}
		if st := gs.Search; st != nil {
			row.Diversity = st.PreyDiversity
			row.Entropy = st.PreyEntropy
			row.SizeMean = st.PredSizeMean
			row.GapP50 = st.GapP50
			row.ULArchAdds = st.ULArchiveAdds
			row.GPArchAdds = st.GPArchiveAdds
		}
		rows = append(rows, row)
	}
	return rows
}

// DiffRow compares one metric across two runs.
type DiffRow struct {
	Metric string
	A, B   float64
	Delta  float64 // B - A
}

// Diff compares two runs metric by metric (final-generation values;
// search metrics appear only when both runs carry them).
func Diff(a, b *Run) []DiffRow {
	sa, sb := a.Summarize(), b.Summarize()
	rows := []DiffRow{
		{Metric: "gens", A: float64(sa.Gens), B: float64(sb.Gens)},
		{Metric: "ul_evals", A: float64(sa.ULEvals), B: float64(sb.ULEvals)},
		{Metric: "ll_evals", A: float64(sa.LLEvals), B: float64(sb.LLEvals)},
		{Metric: "best_revenue", A: sa.BestRevenue, B: sb.BestRevenue},
		{Metric: "best_gap", A: sa.BestGap, B: sb.BestGap},
	}
	if sa.HasSearch && sb.HasSearch {
		rows = append(rows,
			DiffRow{Metric: "final_diversity", A: sa.FinalDiversity, B: sb.FinalDiversity},
			DiffRow{Metric: "final_entropy", A: sa.FinalEntropy, B: sb.FinalEntropy},
			DiffRow{Metric: "final_size_mean", A: sa.FinalSizeMean, B: sb.FinalSizeMean},
			DiffRow{Metric: "final_gap_p50", A: sa.FinalGapP50, B: sb.FinalGapP50},
		)
	}
	for i := range rows {
		rows[i].Delta = rows[i].B - rows[i].A
	}
	return rows
}

// OperatorTotals aggregates per-operator offspring counts and
// improvement rates over the whole run, sorted by operator name.
func (r *Run) OperatorTotals() []core.OperatorStats {
	agg := map[string]*core.OperatorStats{}
	for _, gs := range r.Gens {
		if gs.Search == nil {
			continue
		}
		for _, op := range gs.Search.Ops {
			t, ok := agg[op.Op]
			if !ok {
				t = &core.OperatorStats{Op: op.Op}
				agg[op.Op] = t
			}
			t.Count += op.Count
			t.Improved += op.Improved
		}
	}
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]core.OperatorStats, 0, len(names))
	for _, name := range names {
		out = append(out, *agg[name])
	}
	return out
}
