package core

import (
	"carbon/internal/ga"
	"carbon/internal/gp"
	"carbon/internal/stats"
	"carbon/internal/telemetry"
)

// SearchStats is the per-generation search-dynamics snapshot: how
// converged the prey are, how the predator trees are growing, how the
// paired %-gap matrix is distributed, which operators are earning their
// keep, and how hard selection is pulling. Everything here is computed
// from values the generation already produced — no extra LP solves, no
// RNG draws — and only when an observer is attached, so the
// uninstrumented hot path and the determinism contract are untouched.
// All fields are deterministic per seed.
type SearchStats struct {
	// Prey genotype diversity: normalized mean pairwise distance and
	// mean per-gene price entropy (both in [0,1]; see ga.MeanPairwiseDistance
	// and ga.Entropy).
	PreyDiversity float64 `json:"prey_diversity"`
	PreyEntropy   float64 `json:"prey_entropy"`

	// Predator tree shape and bloat: population size/depth distribution
	// and the relative growth of mean size vs the previous generation.
	PredSizeMean  float64 `json:"pred_size_mean"`
	PredSizeMax   int     `json:"pred_size_max"`
	PredDepthMean float64 `json:"pred_depth_mean"`
	PredDepthMax  int     `json:"pred_depth_max"`
	BloatRate     float64 `json:"bloat_rate"`

	// Predator sharing: distinct trees among the predators (duplicates
	// share one forest root) and distinct operator nodes of the
	// generation's hash-consed forest — the operations one scoring run
	// performs per (item, service) lane. Few distinct trees mark a
	// collapsed population; operator nodes far below the summed tree
	// sizes mark bloat built from shared subtrees.
	PredDistinct int `json:"pred_distinct,omitempty"`
	ForestOps    int `json:"forest_ops,omitempty"`

	// %-gap distribution over the full paired-evaluation matrix
	// (every predator × every sampled prey), via a deterministic
	// streaming quantile sketch. Min/Max are exact.
	GapP10 float64 `json:"gap_p10"`
	GapP50 float64 `json:"gap_p50"`
	GapP90 float64 `json:"gap_p90"`
	GapMin float64 `json:"gap_min"`
	GapMax float64 `json:"gap_max"`

	// Selection pressure: Spearman rank correlation between parent
	// fitness and offspring fitness within this generation (0 when no
	// parented offspring exist yet).
	PreySelCorr float64 `json:"prey_sel_corr"`
	PredSelCorr float64 `json:"pred_sel_corr"`

	// Archive churn: how many offers actually changed each archive this
	// generation.
	ULArchiveAdds int `json:"ul_archive_adds"`
	GPArchiveAdds int `json:"gp_archive_adds"`

	// Per-operator success: of the offspring each variation operator
	// produced, how many strictly beat their best parent. Sorted by
	// operator name; empty on the first observed generation.
	Ops []OperatorStats `json:"ops,omitempty"`
}

// OperatorStats tallies one variation operator's offspring for one
// generation.
type OperatorStats struct {
	Op       string `json:"op"`
	Count    int    `json:"count"`
	Improved int    `json:"improved"`
}

// initLineage lazily turns on introspection the first time Step runs
// with an observer attached. A population that has already evolved (or
// was restored from a checkpoint) gets unparented "restore" records —
// its earlier ancestry was never tracked.
func (e *Engine) initLineage() {
	op := opInit
	if e.res.Gens > 0 {
		op = opRestore
	}
	e.led = newLineage()
	e.led.preyIDs = e.led.assign(len(e.prey), op, e.res.Gens)
	e.led.predIDs = e.led.assign(len(e.predators), op, e.res.Gens)
	e.gapSketch = telemetry.NewQuantileSketch(telemetry.DefaultSketchSize)
}

// computeSearchStats builds the generation's SearchStats from the
// evaluation results already in hand. gapMat is the paired-evaluation
// %-gap matrix in pairing-index order (fed to the sketch sequentially,
// so the quantiles are deterministic). Called on the coordinating
// goroutine between evaluation and breeding.
func (e *Engine) computeSearchStats(gapMat []float64, ulAdds, gpAdds int) *SearchStats {
	st := &SearchStats{ULArchiveAdds: ulAdds, GPArchiveAdds: gpAdds}

	st.PreyDiversity = ga.MeanPairwiseDistance(e.prey, e.bounds)
	st.PreyEntropy = ga.Entropy(e.prey, e.bounds)

	sh := gp.PopulationShape(e.set, e.predators)
	st.PredSizeMean, st.PredSizeMax = sh.SizeMean, sh.SizeMax
	st.PredDepthMean, st.PredDepthMax = sh.DepthMean, sh.DepthMax
	if e.prevSizeMean > 0 {
		st.BloatRate = (sh.SizeMean - e.prevSizeMean) / e.prevSizeMean
	}
	e.prevSizeMean = sh.SizeMean
	st.PredDistinct, st.ForestOps = e.forest.Rows(), e.forest.OpNodes()

	s := e.gapSketch
	s.Reset()
	for _, g := range gapMat {
		s.Add(g)
	}
	if s.Count() > 0 {
		st.GapP10 = s.Quantile(0.10)
		st.GapP50 = s.Quantile(0.50)
		st.GapP90 = s.Quantile(0.90)
		st.GapMin, st.GapMax = s.Min(), s.Max()
	}

	// Provenance: evaluated fitness onto the ledger, champion check.
	e.led.setFitness(e.led.preyIDs, e.preyFit)
	e.led.setFitness(e.led.predIDs, e.predFit)
	e.led.noteChampion(e.predFit, e.predators, e.set)

	// Operator success and selection pressure need the parents'
	// fitness, known only from the second observed generation on.
	var tally [len(opNames)]OperatorStats
	px, py := opSuccess(&tally, e.preyOrigins, e.prevPreyFit, e.preyFit, false)
	qx, qy := opSuccess(&tally, e.predOrigins, e.prevPredFit, e.predFit, true)
	st.PreySelCorr = stats.Spearman(px, py)
	st.PredSelCorr = stats.Spearman(qx, qy)
	for code := range tally {
		if tally[code].Count > 0 {
			tally[code].Op = opNames[code]
			st.Ops = append(st.Ops, tally[code])
		}
	}
	return st
}

// opSuccess walks one population's origins, tallying per-operator
// improvement against the best parent and collecting (parent fitness,
// child fitness) pairs for the selection-pressure correlation. minimize
// selects the fitness direction (predators minimize gap, prey maximize
// revenue).
func opSuccess(tally *[len(opNames)]OperatorStats, origins []origin, prevFit, fit []float64, minimize bool) (parents, children []float64) {
	for i, o := range origins {
		if o.p1 < 0 || o.p1 >= len(prevFit) || i >= len(fit) {
			continue
		}
		pf := prevFit[o.p1]
		if o.p2 >= 0 && o.p2 < len(prevFit) {
			if minimize && prevFit[o.p2] < pf {
				pf = prevFit[o.p2]
			} else if !minimize && prevFit[o.p2] > pf {
				pf = prevFit[o.p2]
			}
		}
		parents = append(parents, pf)
		children = append(children, fit[i])
		if !breedingOp(o.op) {
			continue
		}
		tally[o.op].Count++
		if (minimize && fit[i] < pf) || (!minimize && fit[i] > pf) {
			tally[o.op].Improved++
		}
	}
	return parents, children
}
