package core

import (
	"errors"
	"fmt"

	"carbon/internal/bcpop"
	"carbon/internal/checkpoint"
	"carbon/internal/gp"
	"carbon/internal/lp"
)

// fingerprint identifies the configuration a snapshot belongs to; a
// mismatch at restore time means the caller changed something that makes
// the state meaningless (population sizes, operators, the market shape).
// Budgets are deliberately NOT part of the fingerprint: extending the
// budget and resuming is the intended way to continue a finished run.
func (c *Config) fingerprint(mk *bcpop.Market) string {
	return fmt.Sprintf("v1|pop=%d/%d|arch=%d/%d|probs=%.3f/%.3f/%.3f/%.3f/%.3f|sample=%d|market=%dx%dx%d|cost=%t|elim=%t|var=%s",
		c.ULPopSize, c.LLPopSize, c.ULArchiveSize, c.LLArchiveSize,
		c.ULCrossoverProb, c.ULMutationProb, c.LLCrossoverProb, c.LLMutationProb, c.LLReproProb,
		c.PreySample, mk.Bundles(), mk.Services(), mk.Leaders(),
		c.CostFitness, !c.NoElimination, c.ULVariation)
}

// ErrDegraded marks an engine whose run quarantined at least one
// evaluation (Engine.Faults > 0). Such an engine keeps running —
// degradation is graceful — but it refuses to Snapshot: the quarantined
// generations evolved on substituted worst-known fitness, so resuming
// from the snapshot could never replay bit-identically against a
// fault-free run. Callers that need exact resumability (carbond) treat
// ErrDegraded as "retry from the last clean checkpoint".
var ErrDegraded = errors.New("core: engine degraded by quarantined evaluations")

// Snapshot captures the engine between Steps as a serializable
// checkpoint.State. Restoring the state continues the run *exactly* as
// if it had never stopped: populations, archives, budget counters,
// curves and the PRNG stream all resume in place. A failed engine
// (Err() != nil) refuses to snapshot — its state is whatever the failing
// generation left behind, not a resumable frontier — and so does a
// degraded one (Faults() > 0, see ErrDegraded).
func (e *Engine) Snapshot() (*checkpoint.State, error) {
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("core: snapshot of failed engine: %w", err)
	}
	if n := e.Faults(); n > 0 {
		return nil, fmt.Errorf("core: snapshot after %d quarantined evaluations: %w", n, ErrDegraded)
	}
	st := &checkpoint.State{
		Fingerprint: e.cfg.fingerprint(e.mk),
		RngState:    e.r.State(),
		ULUsed:      e.ulUsed,
		LLUsed:      e.llUsed,
		Gens:        e.res.Gens,
	}
	for _, x := range e.prey {
		st.Prey = append(st.Prey, append([]float64(nil), x...))
	}
	for _, t := range e.predators {
		st.Predators = append(st.Predators, t.String(e.set))
	}
	for _, en := range e.ulArch.Entries() {
		st.ULArchP = append(st.ULArchP, append([]float64(nil), en.Item...))
		st.ULArchF = append(st.ULArchF, en.Fitness)
	}
	for _, en := range e.gpArch.Entries() {
		st.GPArchT = append(st.GPArchT, en.Item.String(e.set))
		st.GPArchF = append(st.GPArchF, en.Fitness)
	}
	st.ULCurveX = append([]float64(nil), e.res.ULCurve.X...)
	st.ULCurveY = append([]float64(nil), e.res.ULCurve.Y...)
	st.GapCurveX = append([]float64(nil), e.res.GapCurve.X...)
	st.GapCurveY = append([]float64(nil), e.res.GapCurve.Y...)
	st.PreyBases = make([][]byte, len(e.prey))
	for i, b := range e.preyBasis {
		if b != nil {
			st.PreyBases[i], _ = b.MarshalBinary()
		}
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore rebuilds an engine from a snapshot taken under the same market
// and configuration. The restored run is bit-identical to the
// uninterrupted one, at any Workers: the PRNG stream continues exactly,
// and every prey's relaxation starts from the basis the snapshot
// recorded for it (see TestSnapshotRestoreGolden). A basis that does
// not decode or does not fit the market restores that prey parentless,
// as does a snapshot without bases.
//
// Restore lives in core rather than package checkpoint because it needs
// the whole engine; checkpoint stays pure data so spool tooling can link
// it without the evolutionary machinery.
func Restore(mk *bcpop.Market, cfg Config, st *checkpoint.State) (*Engine, error) {
	if st == nil {
		return nil, errors.New("core: nil checkpoint state")
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if got := cfg.fingerprint(mk); got != st.Fingerprint {
		return nil, fmt.Errorf("core: checkpoint fingerprint mismatch:\n  have %s\n  want %s",
			got, st.Fingerprint)
	}
	e, err := NewEngine(mk, cfg)
	if err != nil {
		return nil, err
	}
	if len(st.Prey) != cfg.ULPopSize || len(st.Predators) != cfg.LLPopSize {
		return nil, errors.New("core: checkpoint population sizes disagree with config")
	}
	if err := e.r.Restore(st.RngState); err != nil {
		return nil, err
	}
	for i, x := range st.Prey {
		if len(x) != mk.Leaders() {
			return nil, fmt.Errorf("core: checkpoint prey %d has %d genes, want %d",
				i, len(x), mk.Leaders())
		}
		e.prey[i] = append([]float64(nil), x...)
	}
	for i, data := range st.PreyBases {
		b := new(lp.Basis)
		if len(data) > 0 && b.UnmarshalBinary(data) == nil && b.Fits(mk.Services(), mk.Bundles()) {
			e.preyBasis[i] = b
		}
	}
	for i, src := range st.Predators {
		t, err := gp.Parse(e.set, src)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint predator %d: %w", i, err)
		}
		e.predators[i] = t
	}
	// Re-add archive entries best-first — their stored order. Each entry
	// is no better than the ones before it, so every Add appends at the
	// tail and the rebuilt archive reproduces the snapshot's order
	// exactly, *including* equal-fitness ties, which the archive keeps
	// in insertion order and which Best() and later tie-breaking
	// inserts are sensitive to. (Re-adding worst-first reversed tie
	// groups and could change the continuation of a restored run.)
	// Nothing can be evicted during the rebuild: the archive holds at
	// most cap entries and only fills up on the last Add.
	for i := range st.ULArchP {
		e.ulArch.Add(st.ULArchP[i], st.ULArchF[i])
	}
	for i := range st.GPArchT {
		t, err := gp.Parse(e.set, st.GPArchT[i])
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint archive tree %d: %w", i, err)
		}
		e.gpArch.Add(t, st.GPArchF[i])
	}
	e.ulUsed, e.llUsed = st.ULUsed, st.LLUsed
	e.res.Gens = st.Gens
	e.res.ULCurve.X = append([]float64(nil), st.ULCurveX...)
	e.res.ULCurve.Y = append([]float64(nil), st.ULCurveY...)
	e.res.GapCurve.X = append([]float64(nil), st.GapCurveX...)
	e.res.GapCurve.Y = append([]float64(nil), st.GapCurveY...)
	return e, nil
}
