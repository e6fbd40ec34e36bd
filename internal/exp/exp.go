// Package exp is the experiment harness for §V of the paper: it runs
// CARBON and COBRA side by side over the nine instance classes and
// renders the paper's two tables and two figures.
//
//	Table III — best %-gap to LL optimality per class (CARBON vs COBRA)
//	Table IV  — upper-level objective values per class
//	Fig 4     — CARBON convergence curves (UL fitness ↑, gap ↓), n=500 m=30
//	Fig 5     — COBRA convergence curves (see-saw), same class
//
// The paper's full protocol (30 independent runs, 50 000 evaluations per
// level, population 100) is available through Full(); Quick() scales the
// budgets down so the whole sweep finishes on a laptop while preserving
// the comparisons' shape. Independent runs execute in parallel; each run
// is internally sequential so that (seed, workers=1) reproducibility
// holds per run.
package exp

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"carbon/internal/bcpop"
	"carbon/internal/cobra"
	"carbon/internal/core"
	"carbon/internal/orlib"
	"carbon/internal/par"
	"carbon/internal/plot"
	"carbon/internal/stats"
	"carbon/internal/telemetry"
)

// Settings scale the §V protocol.
type Settings struct {
	Classes       []orlib.Class
	Runs          int // independent runs per (class, algorithm)
	PopSize       int // population and archive size at both levels
	ULEvals       int // UL fitness-evaluation budget per run
	LLEvals       int // LL fitness-evaluation budget per run
	PreySample    int // CARBON: prey sampled per predator evaluation
	InstanceIndex int // which generated instance of each class
	BaseSeed      uint64
	Workers       int // parallel runs (0 = GOMAXPROCS)
	FigPoints     int // resampling grid for averaged curves

	// Observer, when non-nil, is attached to every CARBON run of the
	// sweep. Runs execute concurrently, so it must be safe for
	// concurrent use (core.JSONLObserver is); events carry a
	// "carbon/<class>/run<i>" label for demultiplexing.
	Observer core.Observer

	// Metrics, when non-nil, aggregates hot-path telemetry across the
	// whole sweep into one registry.
	Metrics *telemetry.Registry
}

// Full returns the paper-faithful §V protocol (Table II budgets).
func Full() Settings {
	return Settings{
		Classes:    orlib.PaperClasses,
		Runs:       30,
		PopSize:    100,
		ULEvals:    50000,
		LLEvals:    50000,
		PreySample: 4,
		BaseSeed:   2018,
		FigPoints:  100,
	}
}

// Quick returns a laptop-scale protocol preserving the comparison shape.
func Quick() Settings {
	return Settings{
		Classes:    orlib.PaperClasses,
		Runs:       5,
		PopSize:    24,
		ULEvals:    1200,
		LLEvals:    2400,
		PreySample: 2,
		BaseSeed:   2018,
		FigPoints:  60,
	}
}

// Validate rejects unusable settings.
func (s *Settings) Validate() error {
	switch {
	case len(s.Classes) == 0:
		return fmt.Errorf("exp: no classes")
	case s.Runs < 1:
		return fmt.Errorf("exp: Runs = %d", s.Runs)
	case s.PopSize < 2:
		return fmt.Errorf("exp: PopSize = %d", s.PopSize)
	case s.ULEvals < s.PopSize || s.LLEvals < s.PopSize:
		return fmt.Errorf("exp: budgets below one generation")
	case s.PreySample < 1:
		return fmt.Errorf("exp: PreySample = %d", s.PreySample)
	case s.FigPoints < 2:
		return fmt.Errorf("exp: FigPoints = %d", s.FigPoints)
	}
	return nil
}

func (s *Settings) carbonConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize, cfg.LLPopSize = s.PopSize, s.PopSize
	cfg.ULArchiveSize, cfg.LLArchiveSize = s.PopSize, s.PopSize
	cfg.ULEvalBudget, cfg.LLEvalBudget = s.ULEvals, s.LLEvals
	cfg.PreySample = s.PreySample
	cfg.Workers = 1
	return cfg
}

func (s *Settings) cobraConfig(seed uint64) cobra.Config {
	cfg := cobra.DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize, cfg.LLPopSize = s.PopSize, s.PopSize
	cfg.ULArchiveSize, cfg.LLArchiveSize = s.PopSize, s.PopSize
	cfg.ULEvalBudget, cfg.LLEvalBudget = s.ULEvals, s.LLEvals
	cfg.CoevPairs = max(2, s.PopSize/5)
	cfg.ArchiveInject = max(1, s.PopSize/10)
	cfg.Workers = 1
	return cfg
}

// RunData is one algorithm's per-run record within a cell.
type RunData struct {
	GapPct   float64
	Revenue  float64
	ULCurve  stats.Series
	GapCurve stats.Series
}

// Cell is one (class) row of Tables III/IV: both algorithms' samples and
// summaries plus rank-sum p-values.
type Cell struct {
	Class     orlib.Class
	Carbon    []RunData
	Cobra     []RunData
	CarbonGap stats.Summary
	CobraGap  stats.Summary
	CarbonF   stats.Summary
	CobraF    stats.Summary
	PGap      float64 // rank-sum p for the gap samples
	PF        float64 // rank-sum p for the revenue samples
}

// RunCell executes both algorithms Runs times on one class. Runs are
// dispatched in parallel; seeds are derived deterministically from
// BaseSeed, the class and the run index.
func RunCell(cl orlib.Class, s Settings) (*Cell, error) {
	return RunCellContext(context.Background(), cl, s)
}

// RunCellContext is RunCell with cooperative cancellation: no new run
// starts after the context is canceled, CARBON runs additionally stop at
// their next generation boundary, and the first context error is
// returned. Sweeps driven from a CLI cancel cleanly on Ctrl-C instead of
// running their budgets to completion.
func RunCellContext(ctx context.Context, cl orlib.Class, s Settings) (*Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	mk, err := bcpop.NewMarketFromClass(cl, s.InstanceIndex)
	if err != nil {
		return nil, fmt.Errorf("exp: class %v: %w", cl, err)
	}
	cell := &Cell{
		Class:  cl,
		Carbon: make([]RunData, s.Runs),
		Cobra:  make([]RunData, s.Runs),
	}
	classSalt := uint64(cl.N)*1009 + uint64(cl.M)*31
	var (
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	par.ForEach(2*s.Runs, s.Workers, func(i int) {
		if err := ctx.Err(); err != nil {
			setErr(err)
			return
		}
		run := i / 2
		seed := s.BaseSeed + classSalt + uint64(run)*7919
		if i%2 == 0 {
			cfg := s.carbonConfig(seed)
			cfg.Observer = s.Observer
			cfg.Metrics = s.Metrics
			cfg.RunLabel = fmt.Sprintf("carbon/%dx%d/run%d", cl.N, cl.M, run)
			res, err := core.RunContext(ctx, mk, cfg)
			if err != nil {
				setErr(err)
				return
			}
			cell.Carbon[run] = RunData{
				GapPct:   res.Best.GapPct,
				Revenue:  res.Best.Revenue,
				ULCurve:  res.ULCurve,
				GapCurve: res.GapCurve,
			}
		} else {
			res, err := cobra.Run(mk, s.cobraConfig(seed))
			if err != nil {
				setErr(err)
				return
			}
			cell.Cobra[run] = RunData{
				GapPct:   res.BestGapPct,
				Revenue:  res.BestRevenue,
				ULCurve:  res.ULCurve,
				GapCurve: res.GapCurve,
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	cgaps, cfs := extract(cell.Carbon)
	bgaps, bfs := extract(cell.Cobra)
	cell.CarbonGap = stats.Summarize(cgaps)
	cell.CobraGap = stats.Summarize(bgaps)
	cell.CarbonF = stats.Summarize(cfs)
	cell.CobraF = stats.Summarize(bfs)
	_, cell.PGap = stats.RankSum(cgaps, bgaps)
	_, cell.PF = stats.RankSum(cfs, bfs)
	return cell, nil
}

func extract(rs []RunData) (gaps, fs []float64) {
	gaps = make([]float64, len(rs))
	fs = make([]float64, len(rs))
	for i, r := range rs {
		gaps[i] = r.GapPct
		fs[i] = r.Revenue
	}
	return gaps, fs
}

// Tables is the full §V sweep.
type Tables struct {
	Cells []*Cell
}

// RunTables executes the sweep over every class in the settings.
func RunTables(s Settings, progress func(string)) (*Tables, error) {
	return RunTablesContext(context.Background(), s, progress)
}

// RunTablesContext is RunTables with cooperative cancellation (see
// RunCellContext).
func RunTablesContext(ctx context.Context, s Settings, progress func(string)) (*Tables, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &Tables{}
	for _, cl := range s.Classes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if progress != nil {
			progress(fmt.Sprintf("class %v: %d runs × 2 algorithms", cl, s.Runs))
		}
		cell, err := RunCellContext(ctx, cl, s)
		if err != nil {
			return nil, err
		}
		t.Cells = append(t.Cells, cell)
	}
	return t, nil
}

// TableIII renders the %-gap table in the paper's layout.
func (t *Tables) TableIII() string {
	var b strings.Builder
	b.WriteString("TABLE III: %-gap to LL optimality\n")
	fmt.Fprintf(&b, "%-12s %-14s %12s %12s %10s\n",
		"# Variables", "# Constraints", "CARBON", "COBRA", "p(gap)")
	carbonSum, cobraSum := 0.0, 0.0
	for _, c := range t.Cells {
		fmt.Fprintf(&b, "%-12d %-14d %12.2f %12.2f %10.3g\n",
			c.Class.N, c.Class.M, c.CarbonGap.Mean, c.CobraGap.Mean, c.PGap)
		carbonSum += c.CarbonGap.Mean
		cobraSum += c.CobraGap.Mean
	}
	n := float64(len(t.Cells))
	fmt.Fprintf(&b, "%-27s %12.2f %12.2f\n", "Average", carbonSum/n, cobraSum/n)
	return b.String()
}

// TableIV renders the UL objective table in the paper's layout.
func (t *Tables) TableIV() string {
	var b strings.Builder
	b.WriteString("TABLE IV: UL objective values\n")
	fmt.Fprintf(&b, "%-12s %-14s %12s %12s %10s\n",
		"# Variables", "# Constraints", "CARBON", "COBRA", "p(F)")
	carbonSum, cobraSum := 0.0, 0.0
	for _, c := range t.Cells {
		fmt.Fprintf(&b, "%-12d %-14d %12.2f %12.2f %10.3g\n",
			c.Class.N, c.Class.M, c.CarbonF.Mean, c.CobraF.Mean, c.PF)
		carbonSum += c.CarbonF.Mean
		cobraSum += c.CobraF.Mean
	}
	n := float64(len(t.Cells))
	fmt.Fprintf(&b, "%-27s %12.2f %12.2f\n", "Average", carbonSum/n, cobraSum/n)
	return b.String()
}

// CSV renders the sweep as one machine-readable table.
func (t *Tables) CSV() string {
	var b strings.Builder
	b.WriteString("n,m,carbon_gap_mean,carbon_gap_std,cobra_gap_mean,cobra_gap_std," +
		"carbon_F_mean,carbon_F_std,cobra_F_mean,cobra_F_std,p_gap,p_F\n")
	for _, c := range t.Cells {
		fmt.Fprintf(&b, "%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4g,%.4g\n",
			c.Class.N, c.Class.M,
			c.CarbonGap.Mean, c.CarbonGap.Std, c.CobraGap.Mean, c.CobraGap.Std,
			c.CarbonF.Mean, c.CarbonF.Std, c.CobraF.Mean, c.CobraF.Std,
			c.PGap, c.PF)
	}
	return b.String()
}

// ShapeReport checks the qualitative claims of §V against the sweep and
// reports pass/fail per claim — the reproduction contract of DESIGN.md:
// CARBON's gap below COBRA's on every class, and COBRA's reported UL
// objective above CARBON's (the Eq. 2/3 relaxation-ordering argument).
func (t *Tables) ShapeReport() string {
	var b strings.Builder
	gapWins, fOrder := 0, 0
	for _, c := range t.Cells {
		if c.CarbonGap.Mean < c.CobraGap.Mean {
			gapWins++
		}
		if c.CobraF.Mean > c.CarbonF.Mean {
			fOrder++
		}
	}
	n := len(t.Cells)
	fmt.Fprintf(&b, "shape: CARBON gap < COBRA gap on %d/%d classes\n", gapWins, n)
	fmt.Fprintf(&b, "shape: COBRA UL objective > CARBON (Eq. 3 over-estimation) on %d/%d classes\n", fOrder, n)
	return b.String()
}

// Figure is a pair of averaged convergence curves for one algorithm.
type Figure struct {
	Class orlib.Class
	Algo  string
	UL    stats.Series // mean best-F curve
	Gap   stats.Series // mean gap curve
}

// Figures extracts Fig 4 (CARBON) and Fig 5 (COBRA) data from an
// already-run cell: the per-run curves averaged onto a common grid.
func (c *Cell) Figures(points int) (fig4, fig5 Figure) {
	carbonUL := make([]stats.Series, len(c.Carbon))
	carbonGap := make([]stats.Series, len(c.Carbon))
	for i, r := range c.Carbon {
		carbonUL[i] = r.ULCurve
		carbonGap[i] = r.GapCurve
	}
	cobraUL := make([]stats.Series, len(c.Cobra))
	cobraGap := make([]stats.Series, len(c.Cobra))
	for i, r := range c.Cobra {
		cobraUL[i] = r.ULCurve
		cobraGap[i] = r.GapCurve
	}
	fig4 = Figure{
		Class: c.Class, Algo: "CARBON",
		UL:  stats.AverageSeries(carbonUL, points),
		Gap: stats.AverageSeries(carbonGap, points),
	}
	fig5 = Figure{
		Class: c.Class, Algo: "COBRA",
		UL:  stats.AverageSeries(cobraUL, points),
		Gap: stats.AverageSeries(cobraGap, points),
	}
	return fig4, fig5
}

// CSV renders the figure as evaluation,ul,gap rows.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s convergence, class %v\n", f.Algo, f.Class)
	b.WriteString("evals,best_F,best_gap\n")
	for i := range f.UL.X {
		gap := ""
		if i < len(f.Gap.Y) {
			gap = fmt.Sprintf("%.4f", f.Gap.Y[i])
		}
		fmt.Fprintf(&b, "%.0f,%.4f,%s\n", f.UL.X[i], f.UL.Y[i], gap)
	}
	return b.String()
}

// SVG renders the figure as a standalone SVG document: the UL-fitness
// curve stacked above the gap curve, the layout of the paper's Figs 4/5.
func (f Figure) SVG() string {
	title := fmt.Sprintf("%s on %v", f.Algo, f.Class)
	ul := plot.Line(title+" — best UL fitness (F)", "fitness evaluations", "F",
		"best F", f.UL.X, f.UL.Y)
	gap := plot.Line(title+" — best %-gap to LL optimality", "fitness evaluations", "gap (%)",
		"best gap", f.Gap.X, f.Gap.Y)
	gap.Series[0].Color = "#d62728"
	return plot.Stack(720, 300, ul, gap)
}

// ASCII renders both curves as terminal plots.
func (f Figure) ASCII(width, height int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %v — best UL fitness (F)\n", f.Algo, f.Class)
	b.WriteString(plotASCII(f.UL, width, height))
	fmt.Fprintf(&b, "%s on %v — best %%-gap\n", f.Algo, f.Class)
	b.WriteString(plotASCII(f.Gap, width, height))
	return b.String()
}

// plotASCII draws a single series with a dot-matrix plot.
func plotASCII(s stats.Series, width, height int) string {
	if len(s.Y) == 0 || width < 8 || height < 2 {
		return "(no data)\n"
	}
	lo, hi := s.Y[0], s.Y[0]
	for _, y := range s.Y {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i, y := range s.Y {
		col := i * (width - 1) / max(1, len(s.Y)-1)
		row := int(float64(height-1) * (hi - y) / (hi - lo))
		grid[row][col] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%11.2f ┐\n", hi)
	for _, row := range grid {
		fmt.Fprintf(&b, "%12s│%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%11.2f ┘ evals: %.0f → %.0f\n", lo, s.X[0], s.X[len(s.X)-1])
	return b.String()
}
