package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"carbon/internal/checkpoint"
	"carbon/internal/core"
	"carbon/internal/fault"
	"carbon/internal/par"
	"carbon/internal/rng"
	"carbon/internal/span"
	"carbon/internal/telemetry"
)

// Typed errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is the backpressure signal: the FIFO queue is at
	// Options.QueueDepth and the submission was rejected, not blocked.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("serve: no such job")
	// ErrClosed rejects submissions to a draining or closed manager.
	ErrClosed = errors.New("serve: manager closed")
	// ErrNotFinished rejects a result request for a job still in flight.
	ErrNotFinished = errors.New("serve: job not finished")

	// errDrained and errCanceledByUser classify why a running job's loop
	// stopped early (see runJob).
	errDrained        = errors.New("serve: manager draining")
	errCanceledByUser = errors.New("serve: canceled by request")

	// errSpecDeadline marks the job's own TimeoutSec budget expiring —
	// the job proved it cannot finish in its allotted time, so retrying
	// it would only burn the budget again. Non-retryable.
	errSpecDeadline = errors.New("serve: job deadline exceeded")
	// errAttemptTimeout marks one attempt outliving Options.AttemptTimeout
	// (a hung solver, a stalled disk). The job itself may be fine, so the
	// attempt is retried from its last clean checkpoint.
	errAttemptTimeout = errors.New("serve: attempt timed out")
)

// retryable classifies an execute error: drain and cancel are lifecycle
// transitions, the spec deadline is a spent budget, everything else
// (evaluation faults, degraded engines, spool I/O, attempt timeouts) is
// presumed transient and worth another attempt.
func retryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, errDrained),
		errors.Is(err, errCanceledByUser),
		errors.Is(err, errSpecDeadline):
		return false
	}
	return true
}

// Options configures a Manager.
type Options struct {
	// Workers is the number of jobs run concurrently (default 1). This is
	// job-level parallelism; each job's evaluation parallelism is its
	// spec's Workers field.
	Workers int
	// QueueDepth bounds the FIFO queue of jobs waiting for a worker
	// (default 16). Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// SpoolDir is where specs, checkpoints and results live. Required.
	SpoolDir string
	// CheckpointEvery writes a checkpoint every N generations while a job
	// runs (default 25; <0 disables periodic checkpoints — drain still
	// checkpoints).
	CheckpointEvery int
	// Metrics, when non-nil, aggregates every job's engine instruments
	// into one registry (served by cmd/carbond next to the job API).
	Metrics *telemetry.Registry

	// Spans enables per-job span tracing: each job appends its spans to
	// <id>.spans.jsonl next to its other spool entries (surviving crash
	// and restart — incarnations append to the same file and trace), and
	// per-kind span-duration histograms land in Metrics under the "span"
	// prefix. Analyze with carbonstat -spans.
	Spans bool

	// MaxAttempts bounds how many times a job is executed before it is
	// dead-lettered (default 3). Each retry resumes from the job's last
	// clean checkpoint, so completed generations are never re-bought.
	MaxAttempts int
	// RetryBackoff is the delay before attempt 2 (default 250ms); each
	// further retry doubles it, capped at maxBackoff, with ±50% jitter.
	RetryBackoff time.Duration
	// AttemptTimeout bounds a single attempt's wall clock (0 = no bound).
	// Unlike the spec's TimeoutSec — the job's total budget, which is
	// never retried — an attempt timeout is retryable.
	AttemptTimeout time.Duration
	// RetrySeed seeds the jitter stream (default 1), keeping backoff
	// sequences reproducible in tests.
	RetrySeed uint64

	// EventBuffer bounds each job's live-event ring (default 256; <0 is
	// clamped to 1). A subscriber that falls more than EventBuffer events
	// behind skips forward and the gap lands in serve.events_dropped —
	// the publisher never blocks on a consumer.
	EventBuffer int

	// Fault, when non-nil, arms fault-injection sites across the manager:
	// lp.solve inside every job's engine, checkpoint.write and spool.write
	// on the manager's own I/O. Testing and chaos drills only.
	Fault *fault.Injector
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 16
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 25
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 250 * time.Millisecond
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.EventBuffer == 0 {
		o.EventBuffer = 256
	}
	return o
}

// Manager owns the job table, the FIFO queue and the worker pool. All
// methods are safe for concurrent use.
type Manager struct {
	opts Options

	pool  *par.Pool
	queue chan *job
	sem   chan struct{} // caps jobs handed to the pool at opts.Workers

	draining chan struct{} // closed by Close: running jobs park themselves

	mu     sync.Mutex
	jobs   map[string]*job
	seq    int
	closed bool

	// Identity served on /v1/healthz: fixed at construction, read-only
	// after (no locking needed).
	startTime   time.Time
	incarnation string
	build       Build

	// retryRng drives backoff jitter; its own mutex keeps the retry path
	// off the job-table lock.
	retryMu  sync.Mutex
	retryRng *rng.Rand

	// Armed fault sites (nil when Options.Fault is nil or lacks the site).
	lpFault    *fault.Site
	ckptFault  *fault.Site
	spoolFault *fault.Site

	metRetries *telemetry.Counter // serve.retries
	metDead    *telemetry.Counter // serve.jobs_dead
	metDiscard *telemetry.Counter // serve.checkpoints_discarded
	metSpanDrp *telemetry.Counter // span.dropped_writes
	metEvtDrop *telemetry.Counter // serve.events_dropped

	// histExp feeds every job's ended spans into shared duration
	// histograms (span.<name>_ms in Metrics); nil when tracing is off or
	// no registry was given.
	histExp *span.HistExporter

	dispatcherDone chan struct{}
}

// NewManager creates the spool directory if needed, recovers every
// unfinished job found in it (finished ones are loaded as done so their
// results stay queryable), and starts the worker pool.
func NewManager(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.SpoolDir == "" {
		return nil, errors.New("serve: Options.SpoolDir is required")
	}
	if opts.Workers < 1 || opts.QueueDepth < 1 {
		return nil, errors.New("serve: Workers and QueueDepth must be positive")
	}
	if err := os.MkdirAll(opts.SpoolDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	m := &Manager{
		opts:           opts,
		pool:           par.NewPool(opts.Workers),
		sem:            make(chan struct{}, opts.Workers),
		draining:       make(chan struct{}),
		jobs:           make(map[string]*job),
		startTime:      start,
		incarnation:    fmt.Sprintf("%d-%x", os.Getpid(), start.UnixNano()),
		build:          readBuild(),
		retryRng:       rng.New(opts.RetrySeed),
		lpFault:        opts.Fault.Lookup(fault.SiteLPSolve),
		ckptFault:      opts.Fault.Lookup(fault.SiteCheckpoint),
		spoolFault:     opts.Fault.Lookup(fault.SiteSpoolWrite),
		dispatcherDone: make(chan struct{}),
	}
	if reg := opts.Metrics; reg != nil {
		m.metRetries = reg.Counter("serve.retries")
		m.metDead = reg.Counter("serve.jobs_dead")
		m.metDiscard = reg.Counter("serve.checkpoints_discarded")
		m.metSpanDrp = reg.Counter("span.dropped_writes")
		m.metEvtDrop = reg.Counter("serve.events_dropped")
	}
	if opts.Spans {
		m.histExp = span.NewHistExporter(opts.Metrics, "span")
	}
	recovered, err := m.recover()
	if err != nil {
		return nil, err
	}
	// Size the queue so every recovered job fits ahead of QueueDepth new
	// submissions — recovery must never trip its own backpressure.
	m.queue = make(chan *job, opts.QueueDepth+len(recovered))
	for _, j := range recovered {
		m.queue <- j
	}
	go m.dispatch()
	return m, nil
}

// recover scans the spool: a spec with a result is re-registered as
// done; a spec with a dead record is re-registered as dead (attempts
// preserved); a spec with neither becomes a queued job again (runJob
// restores its checkpoint if present). A torn spec — the signature a
// crash mid-spool-write leaves — is quarantined (renamed *.corrupt) and
// skipped rather than failing the whole start: one mangled file must
// not hold every healthy job hostage. Returns the re-queued jobs in ID
// order so recovery preserves rough submission order.
//
// Quarantined artifacts (*.corrupt) and span traces (*.spans.jsonl)
// live in the same directory; they are skipped *explicitly* — not by
// happening to miss the ".job.json" suffix — and any ID they embed is
// burned so a fresh submission can never collide with the leftovers of
// a quarantined job (see TestRecoverHostileSpool).
func (m *Manager) recover() ([]*job, error) {
	entries, err := os.ReadDir(m.opts.SpoolDir)
	if err != nil {
		return nil, err
	}
	var requeue []*job
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if strings.HasSuffix(name, ".corrupt") || strings.HasSuffix(name, ".spans.jsonl") {
			m.burnSpoolID(name)
			continue
		}
		id, ok := strings.CutSuffix(name, ".job.json")
		if !ok {
			continue
		}
		// Spool entries are always named j%06d; anything else is not ours
		// (a stray file dropped into the spool) and is left untouched.
		var n int
		if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
			continue
		}
		// Keep fresh IDs clear of every recovered one — even a corrupt
		// entry burns its ID, or the next submission would collide with
		// the quarantined files.
		if n > m.seq {
			m.seq = n
		}
		var spec JobSpec
		if err := checkpoint.ReadJSON(m.specPath(id), &spec); err != nil {
			checkpoint.Quarantine(m.specPath(id))
			continue
		}
		j := &job{id: id, spec: spec, state: StateQueued, submitted: time.Now()}
		j.events = NewEventRing(m.opts.EventBuffer, m.metEvtDrop)
		if rec := new(ResultRecord); readJSONQuarantine(m.resultPath(id), rec) {
			j.state = StateDone
			j.result = rec
			j.gens = rec.Gens
		} else if dead := new(DeadRecord); readJSONQuarantine(m.deadPath(id), dead) {
			j.state = StateDead
			j.attempts = dead.Attempts
			j.errMsg = dead.Error
			fin := dead.Finished
			j.finished = &fin
		} else {
			m.reattachSpans(j)
			requeue = append(requeue, j)
		}
		// Seed the recovered job's stream with its current position —
		// events from the previous incarnation are gone with its memory,
		// so subscribers start from this state (terminal states close the
		// stream immediately).
		j.publishState()
		m.jobs[id] = j
	}
	sort.Slice(requeue, func(a, b int) bool { return requeue[a].id < requeue[b].id })
	return requeue, nil
}

// reattachSpans rejoins a recovered job to its pre-crash trace. Submit
// rewrote the spooled spec's TraceParent to the job's own root span, so
// the new incarnation's queue.wait and attempt spans parent into the
// same tree — carbonstat -spans stitches attempts across restarts by
// trace ID. The file exporter appends, so the announce records the dead
// process wrote stay in place.
func (m *Manager) reattachSpans(j *job) {
	if !m.opts.Spans {
		return
	}
	ctx, err := span.ParseTraceParent(j.spec.TraceParent)
	if err != nil {
		return // pre-tracing spool entry: run it untraced rather than fail
	}
	j.spanExp = span.NewFileExporter(m.spanPath(j.id))
	j.spanExp.SetDropCounter(m.metSpanDrp)
	j.tracer = span.New(span.Multi(j.spanExp, m.histExp))
	j.root = ctx
	j.queueSpan = j.tracer.StartRemote(ctx, "queue.wait").
		Kind(span.KindQueue).Attr("recovered", true).Announce()
}

// burnSpoolID advances the ID sequence past any job ID embedded in a
// spool sibling's name ("j000007.ckpt.json.corrupt" burns 7), so fresh
// submissions never reuse an ID that still owns on-disk evidence.
func (m *Manager) burnSpoolID(name string) {
	var n int
	if _, err := fmt.Sscanf(name, "j%d", &n); err == nil && n > m.seq {
		m.seq = n
	}
}

// readJSONQuarantine decodes path into v, quarantining a present-but-
// torn file. Reports whether a valid record was loaded.
func readJSONQuarantine(path string, v any) bool {
	b, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	if err := json.Unmarshal(b, v); err != nil {
		checkpoint.Quarantine(path)
		return false
	}
	return true
}

// dispatch feeds queued jobs to the pool, at most opts.Workers in
// flight, preserving FIFO order. The worker slot is acquired before the
// job leaves the queue, so QueueDepth is exactly the number of waiting
// jobs — the dispatcher never parks one in limbo between queue and pool.
// It exits when Close closes the queue.
func (m *Manager) dispatch() {
	defer close(m.dispatcherDone)
	for {
		m.sem <- struct{}{}
		j, ok := <-m.queue
		if !ok {
			<-m.sem
			break
		}
		m.pool.SubmitLabeled(func() {
			defer func() { <-m.sem }()
			m.runJob(j)
		}, "job", j.id)
	}
	m.pool.Close()
}

// Submit validates, spools and enqueues a job. The spec is normalized
// (withDefaults) before anything is written, so the spooled spec — and
// the config fingerprint a resume will check — is self-contained.
func (m *Manager) Submit(spec JobSpec) (Status, error) {
	return m.submit(spec, nil)
}

// SubmitWithCheckpoint is Submit with a starting checkpoint: the bytes
// are installed as the job's spooled checkpoint before it is enqueued,
// so its first attempt resumes from that state instead of generation 0.
// This is the cluster failover path — a router re-homing a dead
// worker's job hands the survivor the job's last mirrored checkpoint,
// and the resumed run stays bit-identical to one that never moved (see
// core.Restore). The bytes must decode as a valid checkpoint envelope;
// config drift against the spec is handled like any spooled checkpoint
// (quarantine + fresh start), so a stale mirror costs recomputed
// generations, never correctness.
func (m *Manager) SubmitWithCheckpoint(spec JobSpec, ckpt []byte) (Status, error) {
	if len(ckpt) > 0 {
		st, err := checkpoint.DecodeBytes(ckpt)
		if err != nil {
			return Status{}, fmt.Errorf("serve: seed checkpoint: %w", err)
		}
		if err := st.Validate(); err != nil {
			return Status{}, fmt.Errorf("serve: seed checkpoint: %w", err)
		}
	}
	return m.submit(spec, ckpt)
}

func (m *Manager) submit(spec JobSpec, ckpt []byte) (Status, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("j%06d", m.seq)
	m.mu.Unlock()

	// The job is built — spans included — before it becomes visible to
	// List or the queue, so its identity fields never race a reader.
	j := &job{id: id, state: StateQueued, submitted: time.Now()}
	j.events = NewEventRing(m.opts.EventBuffer, m.metEvtDrop)
	if m.opts.Spans {
		// The root "job" span opens the trace. A valid caller TraceParent
		// (the API's traceparent header) parents it into the caller's
		// trace; either way the spec spooled below carries the root's own
		// context, so a restarted manager re-joins this trace. Announce
		// writes the open record now — a crash leaves the root open in
		// the file, never absent.
		j.spanExp = span.NewFileExporter(m.spanPath(id))
		j.spanExp.SetDropCounter(m.metSpanDrp)
		j.tracer = span.New(span.Multi(j.spanExp, m.histExp))
		if parent, perr := span.ParseTraceParent(spec.TraceParent); perr == nil {
			j.rootSpan = j.tracer.StartRemote(parent, "job")
		} else {
			j.rootSpan = j.tracer.Start(span.Context{}, "job")
		}
		j.rootSpan.Kind(span.KindCompute).Attr("job", id).Attr("name", spec.Name).Announce()
		j.root = j.rootSpan.Context()
		spec.TraceParent = j.root.TraceParent()
		j.queueSpan = j.tracer.Start(j.root, "queue.wait").Kind(span.KindQueue).Announce()
	}
	j.spec = spec
	discard := func() {
		j.closeSpans()
		_ = os.Remove(m.specPath(id)) // a torn artifact may exist
		_ = os.Remove(m.ckptPath(id))
		_ = os.Remove(m.spanPath(id))
	}

	// Spool the spec before enqueueing: once Submit returns, a crash
	// cannot lose the job.
	if err := m.spoolWrite(m.specPath(id), spec); err != nil {
		discard()
		return Status{}, err
	}
	// A seed checkpoint (cluster failover) lands next to the spec with
	// the same atomic discipline; execute finds it exactly where a
	// periodic checkpoint would have been.
	if len(ckpt) > 0 {
		err := checkpoint.WriteAtomic(m.ckptPath(id), func(w io.Writer) error {
			_, err := w.Write(ckpt)
			return err
		})
		if err != nil {
			discard()
			return Status{}, err
		}
	}
	// Publish "queued" (seq 1) and snapshot the accepted status before
	// the enqueue: once the job is on the queue a worker may mark it
	// running at any moment, and neither the stream nor the caller may
	// see that before the acceptance. A refused job's ring is dropped
	// with it, unread.
	j.publishState()
	st := j.status()
	// Registration and enqueue happen under one lock so the enqueue
	// cannot race Close closing the channel; it is a non-blocking select,
	// so the lock is never held across a wait.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		discard()
		return Status{}, ErrClosed
	}
	select {
	case m.queue <- j:
		m.jobs[id] = j
		m.mu.Unlock()
		return st, nil
	default:
		m.mu.Unlock()
		discard()
		return Status{}, ErrQueueFull
	}
}

// Health is the manager's load snapshot — what a cluster router's
// least-loaded and weighted policies consume (GET /v1/healthz). Queue
// depth and running jobs are counted from the job table, so a job
// already popped from the queue but not yet running still shows as
// queued: QueueDepth+Running is exactly the work accepted and unfinished.
type Health struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`

	QueueDepth int `json:"queue_depth"` // jobs accepted but not yet running
	QueueCap   int `json:"queue_cap"`   // Options.QueueDepth
	Running    int `json:"running"`
	Workers    int `json:"workers"` // concurrent job slots (Options.Workers)

	JobsTotal int `json:"jobs_total"` // every job the manager answers for
	Done      int `json:"done"`
	Dead      int `json:"dead"`

	// Identity and liveness — so probes stop inferring them from
	// queue depth alone. Incarnation changes every process
	// start (pid + start time, no algorithm RNG involved): a fleet
	// router comparing incarnations across probes detects a worker that
	// crashed and restarted between two healthy responses.
	UptimeSec   float64 `json:"uptime_sec"`
	Incarnation string  `json:"incarnation"`
	ActiveJobs  int     `json:"active_jobs"` // queued + running
	Build       Build   `json:"build"`
}

// Build identifies the serving binary (from runtime/debug.ReadBuildInfo).
type Build struct {
	GoVersion string `json:"go_version,omitempty"`
	Path      string `json:"path,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
}

// readBuild snapshots the binary's build info once at manager start.
func readBuild() Build {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return Build{}
	}
	b := Build{GoVersion: bi.GoVersion, Path: bi.Main.Path, Version: bi.Main.Version}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			b.Revision = s.Value
		}
	}
	return b
}

// Health reports the manager's current load and identity.
func (m *Manager) Health() Health {
	m.mu.Lock()
	h := Health{
		OK:          !m.closed,
		Draining:    m.closed,
		QueueCap:    m.opts.QueueDepth,
		Workers:     m.opts.Workers,
		UptimeSec:   time.Since(m.startTime).Seconds(),
		Incarnation: m.incarnation,
		Build:       m.build,
	}
	for _, j := range m.jobs {
		h.JobsTotal++
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			h.QueueDepth++
		case StateRunning:
			h.Running++
		case StateDone:
			h.Done++
		case StateDead:
			h.Dead++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	h.ActiveJobs = h.QueueDepth + h.Running
	return h
}

// ErrNoCheckpoint reports that a job has no usable spooled checkpoint
// (none written yet, or the job already finished and removed it).
var ErrNoCheckpoint = errors.New("serve: no checkpoint")

// CheckpointBytes returns the job's latest spooled checkpoint envelope,
// verified to decode before it crosses any wire — a torn artifact is
// reported as absent, never mirrored. This is what a cluster router
// fetches (GET /v1/jobs/{id}/checkpoint) so a dead worker's jobs can be
// re-homed onto survivors from their last clean state.
func (m *Manager) CheckpointBytes(id string) ([]byte, error) {
	if _, err := m.lookup(id); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(m.ckptPath(id))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: job %s: %w", id, ErrNoCheckpoint)
	}
	if err != nil {
		return nil, err
	}
	if st, derr := checkpoint.DecodeBytes(b); derr != nil || st.Validate() != nil {
		return nil, fmt.Errorf("serve: job %s: torn checkpoint on disk: %w", id, ErrNoCheckpoint)
	}
	return b, nil
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (Status, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	return j.status(), nil
}

// List returns a snapshot of every job, sorted by ID (submission order).
func (m *Manager) List() []Status {
	m.mu.Lock()
	all := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	m.mu.Unlock()
	out := make([]Status, len(all))
	for i, j := range all {
		out[i] = j.status()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Result returns the finished job's summary, or ErrNotFinished while it
// is still queued or running.
func (m *Manager) Result(id string) (*ResultRecord, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		if j.state.Terminal() {
			return nil, fmt.Errorf("serve: job %s %s: %s: %w", id, j.state, j.errMsg, ErrNotFinished)
		}
		return nil, ErrNotFinished
	}
	rec := *j.result
	return &rec, nil
}

// Cancel stops a job. A queued job is withdrawn, a running one is
// interrupted at its next generation boundary; either way its spool
// entries are removed. Canceling a terminal job deletes its record (this
// is DELETE's idempotent cleanup path).
func (m *Manager) Cancel(id string) error {
	j, err := m.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	switch {
	case j.state == StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel(errCanceledByUser)
		}
		return nil // runJob finishes the transition and cleans the spool
	case j.state == StateQueued:
		j.state = StateCanceled
		now := time.Now()
		j.finished = &now
		j.mu.Unlock()
		j.publishState()
		j.closeSpans()
	default: // terminal: delete the record entirely
		j.mu.Unlock()
		m.forget(id)
	}
	m.removeSpool(id)
	return nil
}

// Close drains the manager: no new submissions, queued jobs stay spooled
// for the next start, and every running job writes a checkpoint and
// parks at its next generation boundary. The context bounds how long the
// drain may take.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.dispatcherDone
		return nil
	}
	m.closed = true
	close(m.draining)
	close(m.queue)
	m.mu.Unlock()
	select {
	case <-m.dispatcherDone:
		// Every job is parked; release span files still held by jobs the
		// dispatcher never got to (idempotent for the rest).
		m.mu.Lock()
		for _, j := range m.jobs {
			j.closeSpans()
		}
		m.mu.Unlock()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// runJob executes one job end to end: restore-or-create the engine,
// step until the budgets run out, checkpointing periodically, and
// classify any early stop. Retryable failures (evaluation faults,
// degraded engines, spool I/O, attempt timeouts) re-run execute — each
// attempt resumes from the job's last clean checkpoint — with
// exponential backoff between attempts, until Options.MaxAttempts is
// spent and the job is dead-lettered.
func (m *Manager) runJob(j *job) {
	select {
	case <-m.draining:
		return // stays queued; its spooled spec resurrects it next start
	default:
	}
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	now := time.Now()
	j.started = &now
	// One cancel cause covers the whole lifetime — including backoff
	// waits, so Cancel interrupts a job parked between attempts.
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel(nil)
	j.queueSpan.End() // queue wait is over: a worker owns the job now
	j.publishState()  // running

	var err error
	for {
		j.mu.Lock()
		j.attempts++
		attempt := j.attempts
		j.mu.Unlock()
		// Attempt spans are announced so a SIGKILL mid-attempt leaves the
		// open record behind — the next incarnation's spans join the same
		// trace and the analyzer shows the crashed attempt's extent.
		att := j.childOfRoot("attempt").Kind(span.KindCompute).
			Attr("attempt", attempt).Announce()
		err = m.execute(ctx, j, att)
		if err != nil {
			att.Attr("error", err.Error())
		}
		att.End()
		if !retryable(err) || attempt >= m.opts.MaxAttempts {
			break
		}
		m.metRetries.Inc()
		delay := m.backoffDelay(attempt)
		bsp := j.childOfRoot("backoff").Kind(span.KindBackoff).
			Attr("attempt", attempt).Attr("delay_ms", delay.Milliseconds())
		werr := m.awaitRetry(ctx, delay)
		bsp.End()
		if werr != nil {
			err = werr
			break
		}
	}
	j.mu.Lock()
	j.cancel = nil
	attempts := j.attempts
	j.mu.Unlock()

	switch {
	case err == nil:
		j.setState(StateDone)
	case errors.Is(err, errDrained):
		// Checkpointed; back to the queue (on disk, not in memory — the
		// manager is shutting down).
		j.setState(StateQueued)
	case errors.Is(err, errCanceledByUser):
		j.setState(StateCanceled)
		m.removeSpool(j.id)
	case retryable(err):
		// Every attempt spent. Dead-letter: the spec and a DeadRecord
		// stay in the spool so a restart reports the job as dead with its
		// attempt count — an accepted job is never silently dropped, and
		// never blindly re-run either.
		rec := DeadRecord{ID: j.id, Attempts: attempts, Error: err.Error(), Finished: time.Now()}
		dsp := j.childOfRoot("deadletter").Kind(span.KindIO).Attr("attempts", attempts)
		_ = checkpoint.WriteJSON(m.deadPath(j.id), rec)
		_ = os.Remove(m.ckptPath(j.id))
		dsp.End()
		j.mu.Lock()
		j.errMsg = err.Error()
		j.mu.Unlock()
		j.setState(StateDead)
		m.metDead.Inc()
	default:
		// The job's own deadline: it proved it cannot finish in its
		// budget, so remove the spec — the next start must not retry it.
		j.mu.Lock()
		j.errMsg = err.Error()
		j.mu.Unlock()
		j.setState(StateFailed)
		m.removeSpool(j.id)
	}
	// A terminal job ends its root span (drained jobs keep it open — the
	// next incarnation continues the trace). Recovered incarnations have
	// no root handle; their pre-crash announce record stands in and the
	// analyzer infers the extent from the children.
	j.mu.Lock()
	fin := j.state
	j.mu.Unlock()
	if fin.Terminal() && j.rootSpan != nil {
		j.rootSpan.Attr("state", string(fin)).End()
	}
	j.closeSpans()
}

// awaitRetry parks a job between attempts. Drain and cancel interrupt
// the wait with their usual classification, so backoff never delays a
// shutdown.
func (m *Manager) awaitRetry(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.draining:
		return errDrained
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// maxBackoff caps the exponential retry backoff before jitter.
const maxBackoff = 10 * time.Second

// backoffDelay is RetryBackoff·2^(attempt−1) capped at maxBackoff, then
// scaled by a jitter factor in [0.5, 1.5) so a burst of failing jobs
// does not hammer a recovering dependency in lockstep.
func (m *Manager) backoffDelay(attempt int) time.Duration {
	d := m.opts.RetryBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	m.retryMu.Lock()
	jit := 0.5 + m.retryRng.Float64()
	m.retryMu.Unlock()
	return time.Duration(float64(d) * jit)
}

// execute is one attempt of runJob's engine loop, returning nil on
// completion or the classified reason the loop stopped early.
func (m *Manager) execute(ctx context.Context, j *job, att *span.Span) error {
	if j.spec.TimeoutSec > 0 {
		// The spec deadline is the job's total time budget, restarted per
		// attempt only because each attempt resumes from a checkpoint —
		// its expiry is classified non-retryable either way.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx,
			time.Duration(j.spec.TimeoutSec*float64(time.Second)), errSpecDeadline)
		defer cancel()
	}
	if m.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, m.opts.AttemptTimeout, errAttemptTimeout)
		defer cancel()
	}
	mk, err := j.spec.Market()
	if err != nil {
		return err
	}
	cfg := j.spec.Config()
	cfg.Metrics = m.opts.Metrics
	cfg.RunLabel = "carbond/" + j.id
	// Generation spans parent into this attempt, so the waterfall reads
	// job → attempt → gen → wave → lp.solve. Nil-safe when tracing is off.
	cfg.Spans = j.tracer
	cfg.SpanParent = att.Context()
	if m.lpFault != nil {
		cfg.LPFault = m.lpFault.Strike
	}
	cfg.Observer = core.FuncObserver{Generation: func(gs core.GenStats) {
		j.mu.Lock()
		j.latest = &gs
		j.gens = gs.Gen
		j.mu.Unlock()
		// Fan the generation out to live subscribers. publish appends to
		// the ring and returns — a slow or absent consumer costs the
		// engine nothing, and no RNG is consumed on this path.
		j.events.Publish(Event{Job: j.id, Type: EventGen, Gen: &gs})
	}}

	var e *core.Engine
	if st, lerr := checkpoint.LoadFile(m.ckptPath(j.id)); lerr == nil {
		if e, err = core.Restore(mk, cfg, st); err != nil {
			// Decodes but does not restore (config drift, corrupt fields):
			// discard it and start fresh — re-bought generations over a
			// wedged job.
			checkpoint.Quarantine(m.ckptPath(j.id))
			m.metDiscard.Inc()
			e = nil
		} else {
			j.mu.Lock()
			j.resumed = true
			j.gens = e.Gens()
			j.mu.Unlock()
			att.Attr("resumed", true).Attr("start_gen", e.Gens())
		}
	} else if !os.IsNotExist(lerr) {
		// Torn or unreadable checkpoint — the signature a crash mid-write
		// leaves. Quarantine it and start fresh rather than failing the
		// job: losing a checkpoint costs re-computed generations, never
		// correctness.
		checkpoint.Quarantine(m.ckptPath(j.id))
		m.metDiscard.Inc()
	}
	if e == nil {
		if e, err = core.NewEngine(mk, cfg); err != nil {
			return err
		}
	}

	for e.Step() {
		if n := e.Faults(); n > 0 {
			// Quarantined evaluations keep an interactive engine alive,
			// but a served job promises the fault-free result. Bail so the
			// retry resumes from the last clean checkpoint and the final
			// answer stays bit-identical to an undisturbed run.
			return fmt.Errorf("serve: job %s: %d quarantined evaluations by generation %d: %w",
				j.id, n, e.Gens(), core.ErrDegraded)
		}
		select {
		case <-m.draining:
			if werr := m.writeCheckpoint(e, j, att); werr != nil {
				return werr
			}
			return errDrained
		default:
		}
		if cerr := context.Cause(ctx); cerr != nil {
			switch {
			case errors.Is(cerr, errSpecDeadline):
				return fmt.Errorf("serve: job %s deadline (%gs) exceeded at generation %d: %w",
					j.id, j.spec.TimeoutSec, e.Gens(), cerr)
			case errors.Is(cerr, errAttemptTimeout):
				return fmt.Errorf("serve: job %s attempt %d timed out (%s) at generation %d: %w",
					j.id, j.status().Attempts, m.opts.AttemptTimeout, e.Gens(), cerr)
			default:
				return cerr
			}
		}
		if m.opts.CheckpointEvery > 0 && e.Gens()%m.opts.CheckpointEvery == 0 {
			if werr := m.writeCheckpoint(e, j, att); werr != nil {
				return werr
			}
		}
	}
	if err := e.Err(); err != nil {
		return err
	}
	res, err := e.Result()
	if err != nil {
		return err
	}
	rec := NewResultRecord(j.id, j.spec, res)
	// Result before checkpoint removal: if the process dies between the
	// two writes, recovery sees spec+result and loads the job as done —
	// never a half-finished state.
	rsp := j.tracer.Start(att.Context(), "result.write").Kind(span.KindIO)
	if err := m.spoolWrite(m.resultPath(j.id), rec); err != nil {
		rsp.Attr("error", true).End()
		return err
	}
	rsp.End()
	_ = os.Remove(m.ckptPath(j.id))
	j.mu.Lock()
	j.result = rec
	j.gens = rec.Gens
	j.mu.Unlock()
	return nil
}

func (m *Manager) writeCheckpoint(e *core.Engine, j *job, att *span.Span) error {
	sp := j.tracer.Start(att.Context(), "checkpoint.write").
		Kind(span.KindIO).Attr("gen", e.Gens())
	defer sp.End()
	st, err := e.Snapshot()
	if err != nil {
		sp.Attr("error", true)
		return err
	}
	if ferr := m.ckptFault.Strike(); ferr != nil {
		tearFile(m.ckptPath(j.id), st.Encode)
		sp.Attr("error", true)
		return fmt.Errorf("serve: checkpoint for %s: %w", j.id, ferr)
	}
	if werr := st.WriteFile(m.ckptPath(j.id)); werr != nil {
		sp.Attr("error", true)
		return werr
	}
	return nil
}

// spoolWrite is checkpoint.WriteJSON behind the spool.write fault site: a
// strike leaves a torn artifact at the final path — the worst a real
// crash produces — and reports the failure.
func (m *Manager) spoolWrite(path string, v any) error {
	if ferr := m.spoolFault.Strike(); ferr != nil {
		tearFile(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
		return fmt.Errorf("serve: spool write %s: %w", filepath.Base(path), ferr)
	}
	return checkpoint.WriteJSON(path, v)
}

// tearFile simulates a crash mid-write: half the encoding lands at the
// final path with none of the temp-then-rename discipline. Recovery
// must treat such an artifact as corrupt, never parse it as truth.
func tearFile(path string, enc func(io.Writer) error) {
	var buf bytes.Buffer
	if enc(&buf) != nil {
		return
	}
	b := buf.Bytes()
	_ = os.WriteFile(path, b[:len(b)/2], 0o644)
}

func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: job %q: %w", id, ErrNotFound)
	}
	return j, nil
}

func (m *Manager) forget(id string) {
	m.mu.Lock()
	j := m.jobs[id]
	delete(m.jobs, id)
	m.mu.Unlock()
	if j != nil {
		j.events.Close() // subscribers of a deleted record drain and EOF
	}
}

// Spool layout: <id>.job.json (the normalized spec — existence marks a
// job the manager still answers for), <id>.ckpt.json (latest
// checkpoint, removed on completion), <id>.result.json (final summary),
// <id>.dead.json (dead-letter marker for an exhausted job) and
// <id>.spans.jsonl (append-only span trace, Options.Spans).
func (m *Manager) specPath(id string) string {
	return filepath.Join(m.opts.SpoolDir, id+".job.json")
}
func (m *Manager) ckptPath(id string) string {
	return filepath.Join(m.opts.SpoolDir, id+".ckpt.json")
}
func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.opts.SpoolDir, id+".result.json")
}
func (m *Manager) deadPath(id string) string {
	return filepath.Join(m.opts.SpoolDir, id+".dead.json")
}
func (m *Manager) spanPath(id string) string {
	return filepath.Join(m.opts.SpoolDir, id+".spans.jsonl")
}

// removeSpool clears a job's live spool artifacts. The span trace is
// deliberately kept: it is the job's durable latency history, and when a
// fleet router cancels a stale incarnation after failover the spans are
// the only remaining evidence the job ran here — deleting them would
// tear a hole in the cross-node trace. Rescan ignores *.spans.jsonl, so
// the leftover is inert.
func (m *Manager) removeSpool(id string) {
	_ = os.Remove(m.specPath(id))
	_ = os.Remove(m.ckptPath(id))
	_ = os.Remove(m.resultPath(id))
	_ = os.Remove(m.deadPath(id))
}
