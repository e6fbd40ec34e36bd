// Package serve turns the steppable CARBON engine into a crash-safe job
// service: a bounded worker pool drains a FIFO queue of optimization
// jobs, each job checkpoints periodically to a spool directory, and a
// restarted manager rescans the spool and resumes every unfinished job
// exactly where it stopped. Because Engine.Step makes each generation a
// pure function of the snapshot (see core.Restore), a job that survives
// a crash produces the same bits as one that never crashed.
package serve

import (
	"errors"
	"fmt"

	"carbon/internal/bcpop"
	"carbon/internal/core"
	"carbon/internal/orlib"
	"carbon/internal/span"
)

// JobSpec is the serializable description of one CARBON run: everything
// needed to rebuild the market and configuration from scratch, which is
// what makes a spooled job resumable by a process with no shared memory.
// Zero-valued tuning fields take the paper's Table II defaults.
type JobSpec struct {
	Name string `json:"name,omitempty"` // optional human label

	// Instance selection (orlib covering class + index), plus the
	// multi-customer extension when Customers > 1.
	N         int     `json:"n"`
	M         int     `json:"m"`
	Instance  int     `json:"instance"`
	Customers int     `json:"customers,omitempty"`
	Variation float64 `json:"variation,omitempty"`

	Seed       uint64 `json:"seed"`
	Pop        int    `json:"pop,omitempty"`         // population+archive size, both levels (100)
	ULEvals    int    `json:"ul_evals,omitempty"`    // upper-level budget (50000)
	LLEvals    int    `json:"ll_evals,omitempty"`    // lower-level budget (50000)
	PreySample int    `json:"prey_sample,omitempty"` // prey sampled per predator eval (4)

	// Workers is the engine's evaluation parallelism (default 1). A
	// job's result does not depend on it: the engine gives the same bits
	// at any worker count.
	Workers int `json:"workers,omitempty"`

	// TimeoutSec caps the job's wall time (0 = none). A job that blows
	// its deadline fails; it is not resumed on restart.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// TraceParent carries W3C trace context. On submission it is the
	// caller's context (the API fills it from the traceparent request
	// header); the manager then rewrites it to the job's own root span
	// before spooling, so a restarted manager re-joins the same trace —
	// attempt spans from every incarnation stitch into one tree.
	TraceParent string `json:"traceparent,omitempty"`
}

// withDefaults returns the spec with every zero tuning knob resolved.
// Submit normalizes before spooling so the on-disk spec — and therefore
// the config fingerprint checked at resume — never depends on which
// defaults a later binary ships.
func (s JobSpec) withDefaults() JobSpec {
	if s.Pop == 0 {
		s.Pop = 100
	}
	if s.ULEvals == 0 {
		s.ULEvals = 50000
	}
	if s.LLEvals == 0 {
		s.LLEvals = 50000
	}
	if s.PreySample == 0 {
		s.PreySample = 4
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Customers == 0 {
		s.Customers = 1
	}
	return s
}

// Normalize returns the spec with every default resolved — the
// exported form of the normalization Submit performs, for callers that
// run specs outside a Manager (reference runs in tests and the
// benchmark): they must resolve defaults identically or their engines
// diverge from the served job.
func (s JobSpec) Normalize() JobSpec { return s.withDefaults() }

// Validate rejects specs that could never run. It expects a normalized
// spec (withDefaults); Submit applies both in order.
func (s *JobSpec) Validate() error {
	switch {
	case s.N <= 0 || s.M <= 0:
		return fmt.Errorf("serve: bad class %dx%d", s.N, s.M)
	case s.Instance < 0:
		return fmt.Errorf("serve: negative instance index %d", s.Instance)
	case s.Pop < 2:
		return fmt.Errorf("serve: population %d below 2", s.Pop)
	case s.ULEvals < s.Pop || s.LLEvals < s.Pop:
		return errors.New("serve: budgets must cover at least one generation")
	case s.PreySample < 1:
		return errors.New("serve: prey_sample must be at least 1")
	case s.Workers < 1:
		return errors.New("serve: workers must be at least 1")
	case s.TimeoutSec < 0:
		return errors.New("serve: negative timeout")
	case s.Customers < 1:
		return errors.New("serve: customers must be at least 1")
	case s.Variation < 0 || s.Variation >= 1:
		return fmt.Errorf("serve: variation %v outside [0,1)", s.Variation)
	}
	if s.TraceParent != "" {
		if _, err := span.ParseTraceParent(s.TraceParent); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

// Market rebuilds the job's market. Deterministic: the same spec always
// yields the same instance, on any host.
func (s *JobSpec) Market() (*bcpop.Market, error) {
	mk, err := bcpop.NewMarketFromClass(orlib.Class{N: s.N, M: s.M}, s.Instance)
	if err != nil {
		return nil, err
	}
	if s.Customers > 1 {
		return bcpop.NewMultiMarket(mk.Template(), mk.Leaders(), s.Customers, s.Variation, s.Seed)
	}
	return mk, nil
}

// Config maps the spec onto the engine configuration (Table II defaults
// with the spec's overrides applied).
func (s *JobSpec) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.ULPopSize, cfg.LLPopSize = s.Pop, s.Pop
	cfg.ULArchiveSize, cfg.LLArchiveSize = s.Pop, s.Pop
	cfg.ULEvalBudget, cfg.LLEvalBudget = s.ULEvals, s.LLEvals
	cfg.PreySample = s.PreySample
	cfg.Workers = s.Workers
	return cfg
}
