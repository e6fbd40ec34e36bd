package tracestat

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"carbon/internal/core"
)

// genLine fabricates one v2 generation event line.
func genLine(label string, island, gen int, rev float64, search string) string {
	s := ""
	if search != "" {
		s = `,"search":` + search
	}
	return fmt.Sprintf(`{"schema":"carbon.trace/v2","event":"generation","gen":{"label":%q,"island":%d,"gen":%d,"ul_evals":%d,"ll_evals":%d,"ul_budget":0,"ll_budget":0,"best_revenue":%g,"best_gap":1.5,"prey_best":0,"prey_mean":0,"prey_std":0,"pred_best":0,"pred_mean":0,"ul_archive":0,"gp_archive":0,"eval_ns":0,"breed_ns":0%s}}`,
		label, island, gen, gen*10, gen*20, rev, s)
}

func searchBlock(sizeMean, p10, p50, p90 float64) string {
	return fmt.Sprintf(`{"prey_diversity":0.3,"prey_entropy":0.5,"pred_size_mean":%g,"pred_size_max":20,"pred_depth_mean":3,"pred_depth_max":6,"bloat_rate":0,"gap_p10":%g,"gap_p50":%g,"gap_p90":%g,"gap_min":0,"gap_max":5,"prey_sel_corr":0,"pred_sel_corr":0,"ul_archive_adds":1,"gp_archive_adds":1,"ops":[{"op":"sbx","count":8,"improved":2},{"op":"de","count":4,"improved":3}]}`,
		sizeMean, p10, p50, p90)
}

func TestLoadDemuxesRunsByLabelAndIsland(t *testing.T) {
	trace := strings.Join([]string{
		genLine("a", 0, 1, 100, ""),
		genLine("a", 1, 1, 101, ""),
		genLine("a", 0, 2, 102, ""),
		`{"schema":"carbon.trace/v2","event":"migration","migration":{"label":"a","gen":2,"from":0,"to":1,"migrants":2}}`,
		genLine("a", 1, 2, 103, ""),
		`{"schema":"carbon.trace/v2","event":"done","done":{"label":"a","island":1,"gens":2,"ul_evals":20,"ll_evals":40,"best_revenue":103,"best_gap":1.5,"best_tree":"c"}}`,
	}, "\n") + "\n"

	f, err := Load(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if f.Truncated {
		t.Fatal("intact trace reported truncated")
	}
	if len(f.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(f.Runs))
	}
	r0, r1 := f.Run("a#0"), f.Run("a#1")
	if r0 == nil || r1 == nil {
		t.Fatalf("missing runs: %v %v", r0, r1)
	}
	if len(r0.Gens) != 2 || len(r1.Gens) != 2 {
		t.Fatalf("gens split wrong: %d/%d", len(r0.Gens), len(r1.Gens))
	}
	if len(r0.Migrations) != 1 || r0.Migrations[0].To != 1 {
		t.Fatalf("migration misattributed: %+v", r0.Migrations)
	}
	if r0.Done != nil || r1.Done == nil || r1.Done.BestRevenue != 103 {
		t.Fatalf("done misattributed: r0=%v r1=%v", r0.Done, r1.Done)
	}
	if f.Run("b#0") != nil {
		t.Fatal("lookup of absent run succeeded")
	}
}

func TestLoadV1DoneAttribution(t *testing.T) {
	v1gen := `{"schema":"carbon.trace/v1","event":"generation","gen":{"island":0,"gen":1,"ul_evals":10,"ll_evals":20,"ul_budget":0,"ll_budget":0,"best_revenue":100,"best_gap":2,"prey_best":0,"prey_mean":0,"prey_std":0,"pred_best":0,"pred_mean":0,"ul_archive":0,"gp_archive":0,"eval_ns":0,"breed_ns":0}}`
	v1done := `{"schema":"carbon.trace/v1","event":"done","done":{"gens":1,"ul_evals":10,"ll_evals":20,"best_revenue":100,"best_gap":2,"best_tree":"c"}}`

	// Single run: the unattributed v1 done event belongs to it.
	f, err := Load(strings.NewReader(v1gen + "\n" + v1done + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(f.Runs))
	}
	if f.Runs[0].Done == nil || f.Runs[0].Done.BestRevenue != 100 {
		t.Fatalf("v1 done not attached to sole run: %+v", f.Runs[0].Done)
	}
	if f.Runs[0].HasSearch() {
		t.Fatal("v1 run claims search blocks")
	}

	// Two runs: attribution is ambiguous, the done event is dropped and
	// must not fabricate a phantom run.
	two := genLine("x", 0, 1, 100, "") + "\n" + genLine("x", 1, 1, 100, "") + "\n" + v1done + "\n"
	f2, err := Load(strings.NewReader(two))
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Runs) != 2 {
		t.Fatalf("v1 done fabricated a run: %d runs", len(f2.Runs))
	}
	for _, r := range f2.Runs {
		if r.Done != nil {
			t.Fatalf("ambiguous v1 done attached to %s", r.Key())
		}
	}
}

func TestLoadTruncatedTail(t *testing.T) {
	whole := genLine("t", 0, 1, 100, "") + "\n" + genLine("t", 0, 2, 101, "") + "\n"
	cut := whole[:len(whole)-30] // tear the final line mid-JSON

	f, err := Load(strings.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Truncated {
		t.Fatal("torn tail not reported")
	}
	if len(f.Runs) != 1 || len(f.Runs[0].Gens) != 1 {
		t.Fatalf("kept wrong events: %d runs", len(f.Runs))
	}
}

func TestSummarize(t *testing.T) {
	trace := genLine("s", 0, 1, 100, searchBlock(10, 1, 2, 3)) + "\n" +
		genLine("s", 0, 2, 110, searchBlock(11, 1, 2, 3)) + "\n" +
		`{"schema":"carbon.trace/v2","event":"done","done":{"label":"s","island":0,"gens":2,"ul_evals":20,"ll_evals":40,"best_revenue":111,"best_gap":0.9,"best_tree":"c"}}` + "\n"
	f, err := Load(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	s := f.Runs[0].Summarize()
	if s.Key != "s#0" || s.Gens != 2 || !s.Done || !s.HasSearch {
		t.Fatalf("summary header wrong: %+v", s)
	}
	// Done event values win over the last generation's running best.
	if s.BestRevenue != 111 || s.BestGap != 0.9 {
		t.Fatalf("summary best wrong: %+v", s)
	}
	if s.ULEvals != 20 || s.LLEvals != 40 {
		t.Fatalf("summary evals wrong: %+v", s)
	}
	if s.FinalSizeMean != 11 || s.FinalGapP50 != 2 || s.FinalDiversity != 0.3 {
		t.Fatalf("summary search fields wrong: %+v", s)
	}
	if len(s.Anomalies) != 0 {
		t.Fatalf("short healthy run flagged: %+v", s.Anomalies)
	}
}

func TestDetectAnomalies(t *testing.T) {
	var lines []string
	// 30 generations: revenue improves until gen 5 then goes flat
	// (stagnation), size triples (bloat), and the last 6 generations have
	// zero gap spread at median 2 (disengagement).
	for g := 1; g <= 30; g++ {
		rev := 100.0 + float64(g)
		if g > 5 {
			rev = 105
		}
		size := 8.0
		if g > 20 {
			size = 30
		}
		spread := 1.0
		if g > 24 {
			spread = 0
		}
		lines = append(lines, genLine("bad", 0, g, rev, searchBlock(size, 2-spread/2, 2, 2+spread/2)))
	}
	f, err := Load(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Anomaly{}
	for _, a := range f.Runs[0].DetectAnomalies() {
		got[a.Kind] = a
	}
	if a, ok := got["stagnation"]; !ok || a.Gen != 5 {
		t.Fatalf("stagnation: %+v (ok=%v)", a, ok)
	}
	if a, ok := got["bloat"]; !ok || a.Gen != 21 {
		t.Fatalf("bloat: %+v (ok=%v)", a, ok)
	}
	if a, ok := got["disengagement"]; !ok || a.Gen != 25 {
		t.Fatalf("disengagement: %+v (ok=%v)", a, ok)
	}

	// A steadily improving run with stable size and healthy spread must
	// be clean.
	lines = lines[:0]
	for g := 1; g <= 30; g++ {
		lines = append(lines, genLine("good", 0, g, 100+float64(g), searchBlock(8, 1, 2, 3)))
	}
	f2, err := Load(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if as := f2.Runs[0].DetectAnomalies(); len(as) != 0 {
		t.Fatalf("healthy run flagged: %+v", as)
	}
}

// surrogateTraceV2 is three generation events of a carbon.trace/v2 file
// written by an engine that still had surrogate-assisted LP skipping:
// each carries a "surr" block, the last two with skipping active.
const surrogateTraceV2 = `{"schema":"carbon.trace/v2","event":"generation","gen":{"island":0,"gen":3,"ul_evals":12,"ll_evals":24,"ul_budget":48,"ll_budget":96,"best_revenue":6493.63514478503,"best_gap":32.20601394276946,"prey_best":0,"prey_mean":0,"prey_std":0,"pred_best":32.20601394276946,"pred_mean":35.51747388014247,"ul_archive":4,"gp_archive":4,"eval_ns":156817,"breed_ns":10791,"search":{"prey_diversity":0.0693821868279316,"prey_entropy":0.15880325518579722,"pred_size_mean":6.5,"pred_size_max":7,"pred_depth_mean":2.75,"pred_depth_max":3,"bloat_rate":0.625,"gap_p10":32.20060398161738,"gap_p50":32.21142390392155,"gap_p90":46.18397201180401,"gap_min":32.20060398161738,"gap_max":46.18397201180401,"prey_sel_corr":0,"pred_sel_corr":0,"ul_archive_adds":0,"gp_archive_adds":2,"ops":[{"op":"sbx","count":3,"improved":0},{"op":"gp_cross","count":3,"improved":2}]},"surr":{"skips":0,"exact":4,"err":2938.256123271485,"err_lb":0.006087566709060757,"active":false}}}
{"schema":"carbon.trace/v2","event":"generation","gen":{"island":0,"gen":4,"ul_evals":16,"ll_evals":32,"ul_budget":48,"ll_budget":96,"best_revenue":6493.63514478503,"best_gap":32.20069053424946,"prey_best":871.2901897117326,"prey_mean":217.82254742793316,"prey_std":377.2797191792617,"pred_best":32.20069053424946,"pred_mean":32.20069053424946,"ul_archive":4,"gp_archive":4,"eval_ns":483547,"breed_ns":8894,"search":{"prey_diversity":0.06484811413270485,"prey_entropy":0.14307643222405828,"pred_size_mean":7,"pred_size_max":9,"pred_depth_mean":3,"pred_depth_max":4,"bloat_rate":0.07692307692307693,"gap_p10":32.20060398161738,"gap_p50":32.20060398161738,"gap_p90":32.200777086881544,"gap_min":32.20060398161738,"gap_max":32.200777086881544,"prey_sel_corr":0,"pred_sel_corr":0,"ul_archive_adds":0,"gp_archive_adds":3,"ops":[{"op":"sbx","count":1,"improved":0},{"op":"polymut","count":2,"improved":0},{"op":"gp_cross","count":3,"improved":3}]},"surr":{"skips":1,"exact":3,"err":1384.8107507237712,"err_lb":0.004968524304838104,"active":true}}}
{"schema":"carbon.trace/v2","event":"generation","gen":{"island":0,"gen":5,"ul_evals":20,"ll_evals":40,"ul_budget":48,"ll_budget":96,"best_revenue":6493.63514478503,"best_gap":32.20069053424946,"prey_best":0,"prey_mean":0,"prey_std":0,"pred_best":32.20069053424946,"pred_mean":32.20069053424946,"ul_archive":4,"gp_archive":4,"eval_ns":244372,"breed_ns":6718,"search":{"prey_diversity":0.010092054663025488,"prey_entropy":0,"pred_size_mean":8,"pred_size_max":11,"pred_depth_mean":3.5,"pred_depth_max":5,"bloat_rate":0.14285714285714285,"gap_p10":32.20060398161738,"gap_p50":32.20060398161738,"gap_p90":32.200777086881544,"gap_min":32.20060398161738,"gap_max":32.200777086881544,"prey_sel_corr":0,"pred_sel_corr":0,"ul_archive_adds":0,"gp_archive_adds":1,"ops":[{"op":"sbx","count":3,"improved":0},{"op":"gp_cross","count":2,"improved":0},{"op":"gp_repro","count":1,"improved":0}]},"surr":{"skips":0,"exact":2,"err":686.0279165021348,"err_lb":0.006430420103435705,"active":true}}}
`

// TestSurrogateTraceBlocksIgnored: v2 traces whose generation events
// carry surrogate blocks must still read through core.ReadTrace and
// tracestat, with the blocks ignored and no anomaly flagged.
func TestSurrogateTraceBlocksIgnored(t *testing.T) {
	events, err := core.ReadTrace(strings.NewReader(surrogateTraceV2))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[2].Gen == nil || events[2].Gen.Gen != 5 {
		t.Fatalf("got %d events, want generations 3-5", len(events))
	}
	f, err := Load(strings.NewReader(surrogateTraceV2))
	if err != nil {
		t.Fatal(err)
	}
	if f.Truncated || len(f.Runs) != 1 || len(f.Runs[0].Gens) != 3 {
		t.Fatalf("trace demuxed wrong: truncated=%t runs=%d", f.Truncated, len(f.Runs))
	}
	if as := f.Runs[0].DetectAnomalies(); len(as) != 0 {
		t.Fatalf("anomalies flagged: %+v", as)
	}
}

func TestTableSampling(t *testing.T) {
	var lines []string
	for g := 1; g <= 25; g++ {
		lines = append(lines, genLine("t", 0, g, 100+float64(g), searchBlock(8, 1, 2, 3)))
	}
	f, err := Load(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	rows := f.Runs[0].Table(10)
	// Indices 0, 10, 20 plus the final generation (index 24).
	wantGens := []int{1, 11, 21, 25}
	if len(rows) != len(wantGens) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantGens))
	}
	for i, w := range wantGens {
		if rows[i].Gen != w {
			t.Fatalf("row %d gen %d, want %d", i, rows[i].Gen, w)
		}
	}
	if rows[0].SizeMean != 8 || rows[0].GapP50 != 2 {
		t.Fatalf("search columns not filled: %+v", rows[0])
	}
}

func TestDiff(t *testing.T) {
	mk := func(label string, rev float64, size float64) *Run {
		trace := genLine(label, 0, 1, rev, searchBlock(size, 1, 2, 3)) + "\n"
		f, err := Load(strings.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		return f.Runs[0]
	}
	a, b := mk("a", 100, 8), mk("b", 120, 12)
	rows := Diff(a, b)
	byName := map[string]DiffRow{}
	for _, r := range rows {
		byName[r.Metric] = r
	}
	if r := byName["best_revenue"]; r.A != 100 || r.B != 120 || r.Delta != 20 {
		t.Fatalf("best_revenue diff: %+v", r)
	}
	if r := byName["final_size_mean"]; r.Delta != 4 {
		t.Fatalf("final_size_mean diff: %+v", r)
	}

	// When one side is a v1 trace the search rows disappear.
	v1 := `{"schema":"carbon.trace/v1","event":"generation","gen":{"island":0,"gen":1,"ul_evals":1,"ll_evals":2,"ul_budget":0,"ll_budget":0,"best_revenue":90,"best_gap":2,"prey_best":0,"prey_mean":0,"prey_std":0,"pred_best":0,"pred_mean":0,"ul_archive":0,"gp_archive":0,"eval_ns":0,"breed_ns":0}}` + "\n"
	fv1, err := Load(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	mixed := Diff(fv1.Runs[0], b)
	for _, r := range mixed {
		if strings.HasPrefix(r.Metric, "final_") {
			t.Fatalf("search row %q in mixed-schema diff", r.Metric)
		}
	}
}

func TestOperatorTotals(t *testing.T) {
	trace := genLine("o", 0, 1, 100, searchBlock(8, 1, 2, 3)) + "\n" +
		genLine("o", 0, 2, 101, searchBlock(8, 1, 2, 3)) + "\n"
	f, err := Load(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	totals := f.Runs[0].OperatorTotals()
	if len(totals) != 2 {
		t.Fatalf("got %d operators, want 2: %+v", len(totals), totals)
	}
	// Sorted by name: de before sbx. Each block has sbx 8/2 and de 4/3.
	if totals[0].Op != "de" || totals[0].Count != 8 || totals[0].Improved != 6 {
		t.Fatalf("de totals: %+v", totals[0])
	}
	if totals[1].Op != "sbx" || totals[1].Count != 16 || totals[1].Improved != 4 {
		t.Fatalf("sbx totals: %+v", totals[1])
	}
}

func TestRoundTripFromObserver(t *testing.T) {
	// A trace produced by the real observer must demux cleanly, with the
	// v2 search blocks and the champion's ancestry intact.
	var sb strings.Builder
	obs := core.NewJSONLObserver(&sb)
	obs.OnGeneration(core.GenStats{Label: "rt", Gen: 1, BestRevenue: 50})
	obs.OnMigration(core.MigrationStats{Label: "rt", Gen: 1, From: 0, To: 1, Migrants: 1})
	obs.OnGeneration(core.GenStats{Label: "rt", Gen: 2, BestRevenue: 51, Search: &core.SearchStats{
		PredSizeMean: 11, GapP10: 1.8, GapP50: 2, GapP90: 2.2,
		Ops: []core.OperatorStats{{Op: "sbx", Count: 10, Improved: 3}, {Op: "gp_cross", Count: 12, Improved: 4}},
	}})
	ancestry := []core.LineageRecord{
		{ID: 9, Op: "gp_cross", Gen: 1, Parents: []uint64{4, 5}, Expr: "(% (* q d) c)"},
		{ID: 4, Op: "init"},
		{ID: 5, Op: "init"},
	}
	obs.OnDone(&core.Result{Label: "rt", Gens: 2, Ancestry: ancestry})
	f, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Run("rt#0")
	if r == nil || len(r.Gens) != 2 || len(r.Migrations) != 1 || r.Done == nil {
		t.Fatalf("round trip lost events: %+v", f.Runs)
	}
	if s := r.Summarize(); !s.HasSearch || !s.Done {
		t.Fatalf("summary lost the search block or done event: %+v", s)
	}
	if len(r.OperatorTotals()) != 2 {
		t.Fatalf("operator totals: %+v", r.OperatorTotals())
	}
	if !reflect.DeepEqual(r.Done.Ancestry, ancestry) {
		t.Fatalf("ancestry chain = %+v, want %+v", r.Done.Ancestry, ancestry)
	}
}
