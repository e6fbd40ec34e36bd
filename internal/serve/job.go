package serve

import (
	"context"
	"sync"
	"time"

	"carbon/internal/core"
	"carbon/internal/span"
)

// State is a job's position in the lifecycle state machine:
//
//	queued ──▶ running ──▶ done
//	   ▲          │ ├────▶ failed
//	   │  drain   │ ├────▶ canceled
//	   └──────────┘ └────▶ dead
//
// Drain (Manager.Close) checkpoints running jobs and parks them back in
// queued; on the next manager start the spool scan re-enqueues them and
// they resume from the checkpoint. A retryable failure (evaluation
// fault, spool I/O error, attempt timeout) sends the job back through
// the retry loop inside running until Options.MaxAttempts is exhausted,
// at which point it is dead-lettered. done, failed, canceled and dead
// are terminal.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	// StateDead marks a job that failed retryably Options.MaxAttempts
	// times in a row. Its spec and a DeadRecord stay in the spool, so a
	// restarted manager reports it as dead instead of silently retrying
	// or losing it.
	StateDead State = "dead"
)

// Terminal reports whether the state can never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateDead
}

// Status is a point-in-time snapshot of one job, safe to serialize.
type Status struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`

	// Resumed is set when this manager restored the job from a spooled
	// checkpoint rather than starting it fresh.
	Resumed bool `json:"resumed,omitempty"`

	Gens  int    `json:"gens"`
	Error string `json:"error,omitempty"`

	// Attempts counts execution attempts so far (0 until the first run
	// starts). A dead job reports exactly Options.MaxAttempts.
	Attempts int `json:"attempts,omitempty"`

	// Latest is the most recent per-generation snapshot from the engine's
	// Observer hook (nil until the first generation completes).
	Latest *core.GenStats `json:"latest,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// job is the manager's mutable record of one run. All fields below mu
// are guarded by it; the identity fields above are immutable.
type job struct {
	id   string
	spec JobSpec

	// Span tracing (nil/zero when Options.Spans is off or the job was
	// recovered in a terminal state). tracer writes to <id>.spans.jsonl
	// via spanExp; root is the job's root span context — rootSpan is the
	// live handle when this process started the trace, nil in a recovered
	// incarnation (the pre-crash announce record stands in for it, and
	// the analyzer infers the root's extent from its children). These are
	// set before the job becomes visible to workers and never reassigned,
	// so they need no locking.
	tracer    *span.Tracer
	spanExp   *span.FileExporter
	root      span.Context
	rootSpan  *span.Span
	queueSpan *span.Span

	// events is the job's live-stream ring (see events.go) — set before
	// the job becomes visible and never reassigned, so it needs no
	// locking; it has its own mutex internally.
	events *EventRing

	mu        sync.Mutex
	state     State
	resumed   bool
	attempts  int
	errMsg    string
	latest    *core.GenStats
	gens      int
	result    *ResultRecord
	cancel    context.CancelCauseFunc // non-nil only while running
	submitted time.Time
	started   *time.Time
	finished  *time.Time
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		State:     j.state,
		Spec:      j.spec,
		Resumed:   j.resumed,
		Gens:      j.gens,
		Error:     j.errMsg,
		Attempts:  j.attempts,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.latest != nil {
		gs := *j.latest
		st.Latest = &gs
	}
	return st
}

// childOfRoot starts a span under the job's root, marked remote when
// the root was announced by an earlier incarnation of the process (the
// parent link then crosses the wire-encoded TraceParent in the spooled
// spec, not an in-memory Span). Nil-safe: with tracing off it returns a
// nil span.
func (j *job) childOfRoot(name string) *span.Span {
	if j.rootSpan == nil {
		return j.tracer.StartRemote(j.root, name)
	}
	return j.tracer.Start(j.root, name)
}

// closeSpans releases the job's span exporter (idempotent, nil-safe).
// It only closes the file — the spans stay on disk for the analyzer and
// for the next incarnation to append to.
func (j *job) closeSpans() {
	if j.spanExp != nil {
		_ = j.spanExp.Close()
	}
}

// setState transitions the job, stamping started/finished as
// appropriate, and publishes the transition on the job's event stream
// (terminal states also complete the stream).
func (j *job) setState(s State) {
	j.mu.Lock()
	j.state = s
	now := time.Now()
	switch {
	case s == StateRunning && j.started == nil:
		j.started = &now
	case s.Terminal():
		j.finished = &now
	}
	j.mu.Unlock()
	j.publishState()
}

// DeadRecord is the spooled marker of an exhausted job: what failed,
// how many times it was tried, and when it was given up on. Its
// presence in the spool is what lets a restarted manager surface the
// job as dead (attempts preserved) instead of re-running it forever.
type DeadRecord struct {
	ID       string    `json:"id"`
	Attempts int       `json:"attempts"`
	Error    string    `json:"error"`
	Finished time.Time `json:"finished"`
}

// ResultRecord is the serializable summary of a finished job — the
// subset of core.Result that survives JSON (trees travel as their
// canonical text encoding, see gp.Tree.String).
type ResultRecord struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	Gens    int `json:"gens"`
	ULEvals int `json:"ul_evals"`
	LLEvals int `json:"ll_evals"`

	BestRevenue float64   `json:"best_revenue"`
	BestGapPct  float64   `json:"best_gap_pct"`
	BestTree    string    `json:"best_tree"`
	Simplified  string    `json:"simplified"`
	BestPrice   []float64 `json:"best_price"`

	ULCurveX  []float64 `json:"ul_curve_x"`
	ULCurveY  []float64 `json:"ul_curve_y"`
	GapCurveX []float64 `json:"gap_curve_x"`
	GapCurveY []float64 `json:"gap_curve_y"`
}

// NewResultRecord flattens a core.Result for the spool and the API (and
// for reference hashes computed outside a Manager).
func NewResultRecord(id string, spec JobSpec, res *core.Result) *ResultRecord {
	return &ResultRecord{
		ID:          id,
		Spec:        spec,
		Gens:        res.Gens,
		ULEvals:     res.ULEvals,
		LLEvals:     res.LLEvals,
		BestRevenue: res.Best.Revenue,
		BestGapPct:  res.Best.GapPct,
		BestTree:    res.Best.TreeStr,
		Simplified:  res.Best.Simplified,
		BestPrice:   res.Best.Price,
		ULCurveX:    res.ULCurve.X,
		ULCurveY:    res.ULCurve.Y,
		GapCurveX:   res.GapCurve.X,
		GapCurveY:   res.GapCurve.Y,
	}
}
