package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"carbon/internal/checkpoint"
	"carbon/internal/serve"
	"carbon/internal/span"
	"carbon/internal/telemetry"
)

// Options configures a Router.
type Options struct {
	// Workers are the carbond base URLs the router shards jobs across
	// (e.g. "http://127.0.0.1:8081"). At least one is required.
	Workers []string
	// Weights are per-worker capacity weights for PolicyWeighted,
	// aligned with Workers (missing or ≤0 entries count as 1).
	Weights []float64
	// Policy picks the routing policy ("" = round-robin).
	Policy string

	// SpoolDir holds the crash-safe route spool (required).
	SpoolDir string

	// ProbeEvery is the health-check cadence (default 2s); ProbeTimeout
	// bounds each probe and mirror request (default 1s). A worker is
	// declared dead — and its jobs re-homed — after DeadAfter
	// consecutive missed probes (default 3).
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration
	DeadAfter    int

	// Rate and Burst shape per-tenant token-bucket admission: Rate
	// tokens per second (0 = unlimited), bucket capacity Burst. Quota
	// overrides the rate per tenant (a 0 quota blocks the tenant).
	Rate  float64
	Burst int
	Quota map[string]float64

	// Spans writes the router's trace spans to SpoolDir/fleet.spans.jsonl.
	Spans bool

	// Metrics is the router's own instrument registry (a fresh one is
	// created when nil), served on the router's /metrics/prometheus
	// under the carbonfleet prefix.
	Metrics *telemetry.Registry

	// Client is the HTTP client for worker traffic (default: a client
	// with no global timeout; per-request timeouts come from the
	// probe/proxy contexts).
	Client *http.Client
}

// route is the spooled record of where a fleet job lives. Everything a
// failover needs travels with it: the normalized spec to resubmit, the
// tenant it was admitted under, and the router-side trace context every
// incarnation of the job parents into.
type route struct {
	FleetID     string        `json:"fleet_id"`
	Worker      string        `json:"worker"` // base URL currently hosting the job
	JobID       string        `json:"job_id"` // the worker's own job ID
	Spec        serve.JobSpec `json:"spec"`
	Tenant      string        `json:"tenant,omitempty"`
	TraceParent string        `json:"traceparent,omitempty"`
	Failovers   int           `json:"failovers,omitempty"`
	Done        bool          `json:"done,omitempty"` // reached a terminal state on its worker
}

type worker struct {
	url    string
	weight float64

	// Guarded by Router.mu.
	healthy bool
	misses  int
	health  serve.Health
}

// Router shards jobs across a fleet of carbond workers and keeps them
// alive through worker failures: it health-checks the fleet, mirrors
// running jobs' checkpoints into its spool, and when a worker goes dead
// re-submits its unfinished jobs to survivors seeded from the last
// clean checkpoint — zero job loss, and (by core.Restore's contract)
// results bit-identical to an undisturbed run.
type Router struct {
	opts    Options
	client  *http.Client
	buckets *buckets
	tracer  *span.Tracer
	spanExp *span.FileExporter

	// The router's own registry and the counters behind it; proxied
	// event streams live in events.go.
	metrics      *telemetry.Registry
	metFailovers *telemetry.Counter // cluster.failovers
	metEvtDrop   *telemetry.Counter // cluster.events_dropped
	metReconnect *telemetry.Counter // cluster.event_reconnects

	mu        sync.Mutex
	seq       int
	rr        int // round-robin cursor
	workers   []*worker
	routes    map[string]*route
	orphans   map[string][]string // worker URL → job IDs to delete when it revives
	streams   map[string]*fleetStream
	failovers int
	closed    bool

	stop chan struct{}
	done chan struct{}
}

// NewRouter validates opts, recovers the route spool, takes one
// synchronous probe round (so routing starts from real health, not
// optimism), and starts the probe loop.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("cluster: router needs at least one worker")
	}
	if opts.SpoolDir == "" {
		return nil, errors.New("cluster: router needs a spool directory")
	}
	if !validPolicy(opts.Policy) {
		return nil, fmt.Errorf("cluster: unknown routing policy %q", opts.Policy)
	}
	if opts.ProbeEvery <= 0 {
		opts.ProbeEvery = 2 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 3
	}
	if err := os.MkdirAll(opts.SpoolDir, 0o755); err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Router{
		opts:    opts,
		client:  opts.Client,
		buckets: newBuckets(opts.Rate, opts.Burst, opts.Quota, nil),
		metrics: reg,
		routes:  make(map[string]*route),
		orphans: make(map[string][]string),
		streams: make(map[string]*fleetStream),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.metFailovers = reg.Counter("cluster.failovers")
	r.metEvtDrop = reg.Counter("cluster.events_dropped")
	r.metReconnect = reg.Counter("cluster.event_reconnects")
	if r.client == nil {
		r.client = &http.Client{}
	}
	for i, u := range opts.Workers {
		w := &worker{url: strings.TrimRight(u, "/"), weight: 1}
		if i < len(opts.Weights) && opts.Weights[i] > 0 {
			w.weight = opts.Weights[i]
		}
		r.workers = append(r.workers, w)
	}
	if opts.Spans {
		r.spanExp = span.NewFileExporter(filepath.Join(opts.SpoolDir, "fleet.spans.jsonl"))
		r.spanExp.SetDropCounter(reg.Counter("span.dropped_writes"))
		r.tracer = span.New(r.spanExp)
	}
	if err := r.recover(); err != nil {
		return nil, err
	}
	r.probeTick()
	go r.probeLoop()
	return r, nil
}

// recover rebuilds the route table from the spool: torn route files are
// quarantined, and every fleet ID embedded in any spool file — route,
// checkpoint mirror, quarantined sibling — is burned so fresh routes
// never collide with leftovers.
func (r *Router) recover() error {
	entries, err := os.ReadDir(r.opts.SpoolDir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		var n int
		if _, err := fmt.Sscanf(name, "f%d", &n); err == nil && n > r.seq {
			r.seq = n
		}
		id, ok := strings.CutSuffix(name, ".route.json")
		if !ok {
			continue
		}
		rt := new(route)
		if err := checkpoint.ReadJSON(r.routePath(id), rt); err != nil {
			checkpoint.Quarantine(r.routePath(id))
			continue
		}
		r.routes[rt.FleetID] = rt
	}
	return nil
}

// The router's spool mirrors serve's discipline: every record lands via
// checkpoint.WriteAtomic, so a crash leaves either the old file or the
// new one, never a torn read; torn files found at startup are
// quarantined aside as evidence, and their IDs burned so fresh routes
// never collide.
//
// Layout, per fleet job f000001:
//
//	f000001.route.json   where the job lives (worker, worker job ID, spec)
//	f000001.ckpt.json    last mirrored checkpoint envelope (failover seed)
//	fleet.spans.jsonl    the router's own trace spans
func (r *Router) routePath(id string) string {
	return filepath.Join(r.opts.SpoolDir, id+".route.json")
}

func (r *Router) mirrorPath(id string) string {
	return filepath.Join(r.opts.SpoolDir, id+".ckpt.json")
}

// Close stops the probe loop and flushes the span file. It does not
// touch the workers: their jobs keep running, and a restarted router
// reattaches to them through the spool.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	<-r.done
	if r.spanExp != nil {
		return r.spanExp.Close()
	}
	return nil
}

func (r *Router) probeLoop() {
	defer close(r.done)
	t := time.NewTicker(r.opts.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeTick()
		}
	}
}

// probeTick is one round of fleet upkeep: probe every worker, sweep
// revived workers' orphans, sync route states and mirror checkpoints
// from healthy workers, then re-home the jobs of dead ones.
func (r *Router) probeTick() {
	type probe struct {
		h   serve.Health
		err error
	}
	results := make([]probe, len(r.workers))
	var wg sync.WaitGroup
	for i, w := range r.workers {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			results[i].h, results[i].err = r.fetchHealth(url)
		}(i, w.url)
	}
	wg.Wait()

	var revived []string
	r.mu.Lock()
	for i, w := range r.workers {
		if results[i].err != nil {
			w.misses++
			w.healthy = false
			continue
		}
		if w.misses >= r.opts.DeadAfter || len(r.orphans[w.url]) > 0 {
			revived = append(revived, w.url)
		}
		w.misses = 0
		w.healthy = results[i].h.OK
		w.health = results[i].h
	}
	r.mu.Unlock()

	for _, url := range revived {
		r.sweepOrphans(url)
	}
	r.syncRoutes()
	r.failoverDead()
}

func (r *Router) fetchHealth(url string) (serve.Health, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
	defer cancel()
	var h serve.Health
	if err := r.getJSON(ctx, url+"/v1/healthz", &h); err != nil {
		return serve.Health{}, err
	}
	return h, nil
}

// sweepOrphans deletes the abandoned incarnations of re-homed jobs from
// a worker that came back from the dead: its copies were resubmitted
// elsewhere, so whatever it still holds is a duplicate that must not
// burn cycles or answer queries.
func (r *Router) sweepOrphans(url string) {
	r.mu.Lock()
	ids := r.orphans[url]
	delete(r.orphans, url)
	r.mu.Unlock()
	var kept []string
	for _, id := range ids {
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
		req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, url+"/v1/jobs/"+id, nil)
		resp, err := r.client.Do(req)
		cancel()
		if err != nil {
			kept = append(kept, id) // worker flapped again; retry next revival
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if len(kept) > 0 {
		r.mu.Lock()
		r.orphans[url] = append(r.orphans[url], kept...)
		r.mu.Unlock()
	}
}

// syncRoutes refreshes every live route from its healthy worker: a
// terminal job marks the route done (and drops its mirror), a running
// one gets its latest clean checkpoint mirrored into the router spool.
// The mirror is what failover seeds from — a dead worker cannot be
// asked for anything, so the router hoards state while it can.
func (r *Router) syncRoutes() {
	for _, rt := range r.liveRoutes() {
		r.mu.Lock()
		w := r.workerByURL(rt.Worker)
		healthy := w != nil && w.healthy
		r.mu.Unlock()
		if !healthy {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
		var st serve.Status
		err := r.getJSON(ctx, rt.Worker+"/v1/jobs/"+rt.JobID, &st)
		cancel()
		if err != nil {
			continue
		}
		if st.State.Terminal() {
			r.mu.Lock()
			rt.Done = true
			r.mu.Unlock()
			_ = checkpoint.WriteJSON(r.routePath(rt.FleetID), rt)
			_ = os.Remove(r.mirrorPath(rt.FleetID))
			continue
		}
		ctx, cancel = context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
		b, err := r.getBytes(ctx, rt.Worker+"/v1/jobs/"+rt.JobID+"/checkpoint")
		cancel()
		if err == nil && len(b) > 0 {
			_ = checkpoint.WriteAtomic(r.mirrorPath(rt.FleetID), func(w io.Writer) error {
				_, err := w.Write(b)
				return err
			})
		}
	}
}

// failoverDead re-homes the unfinished jobs of every dead worker onto
// survivors, seeding each from its mirrored checkpoint. A job with no
// mirror yet restarts from generation 0 on the survivor — recomputed
// generations, never a lost job. Routes that cannot move (no healthy
// survivor) stay put and are retried next tick.
func (r *Router) failoverDead() {
	for _, rt := range r.liveRoutes() {
		r.mu.Lock()
		w := r.workerByURL(rt.Worker)
		dead := w != nil && w.misses >= r.opts.DeadAfter
		r.mu.Unlock()
		if !dead {
			continue
		}
		r.failover(rt)
	}
}

func (r *Router) failover(rt *route) {
	var ckpt []byte
	if b, err := os.ReadFile(r.mirrorPath(rt.FleetID)); err == nil {
		ckpt = b
	}
	sp := r.startSpan(rt.TraceParent, "fleet.failover").
		Attr("fleet_id", rt.FleetID).Attr("from", rt.Worker).
		Attr("checkpointed", len(ckpt) > 0)
	defer sp.End()

	req := serve.RestoreRequest{Spec: rt.Spec}
	if len(ckpt) > 0 {
		req.CheckpointB64 = base64.StdEncoding.EncodeToString(ckpt)
	}
	order, err := r.candidates()
	if err != nil {
		return
	}
	for _, idx := range order {
		dst := r.workers[idx]
		if dst.url == rt.Worker {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
		st, code, err := r.postJob(ctx, dst.url, "/v1/jobs/restore", req, rt.TraceParent)
		cancel()
		if err != nil || code != http.StatusCreated {
			continue
		}
		sp.Attr("to", dst.url)
		// If the dead worker ever revives, its abandoned copy of this
		// job must be deleted, not raced against the new incarnation.
		r.abandonOldIncarnation(rt.Worker, rt.JobID)
		r.mu.Lock()
		rt.Worker = dst.url
		rt.JobID = st.ID
		rt.Failovers++
		r.failovers++
		r.mu.Unlock()
		r.metFailovers.Inc()
		_ = checkpoint.WriteJSON(r.routePath(rt.FleetID), rt)
		return
	}
	sp.Attr("stranded", true) // retried next probe tick
}

// abandonOldIncarnation queues the dead worker's copy of a re-homed job
// for deletion if that worker ever comes back.
func (r *Router) abandonOldIncarnation(url, jobID string) {
	r.mu.Lock()
	r.orphans[url] = append(r.orphans[url], jobID)
	r.mu.Unlock()
}

func (r *Router) liveRoutes() []*route {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*route
	for _, rt := range r.routes {
		if !rt.Done {
			out = append(out, rt)
		}
	}
	return out
}

func (r *Router) workerByURL(url string) *worker {
	for _, w := range r.workers {
		if w.url == url {
			return w
		}
	}
	return nil
}

// candidates returns healthy worker indices in the active policy's
// preference order, advancing the round-robin cursor.
func (r *Router) candidates() ([]int, error) {
	r.mu.Lock()
	views := make([]workerView, len(r.workers))
	for i, w := range r.workers {
		views[i] = workerView{
			index: i, healthy: w.healthy, weight: w.weight,
			queued: w.health.QueueDepth, running: w.health.Running,
		}
	}
	rr := r.rr
	r.rr++
	r.mu.Unlock()
	return rank(r.opts.Policy, views, rr)
}

// startSpan opens a router span parented into tp (remote) when tp is a
// valid traceparent, or a fresh root otherwise. Nil-safe with spans off.
func (r *Router) startSpan(tp, name string) *span.Span {
	if r.tracer == nil {
		return nil
	}
	if parent, err := span.ParseTraceParent(tp); err == nil {
		return r.tracer.StartRemote(parent, name).Kind(span.KindQueue).Announce()
	}
	return r.tracer.Start(span.Context{}, name).Kind(span.KindQueue).Announce()
}

// --- worker HTTP helpers ---

func (r *Router) getJSON(ctx context.Context, url string, v any) error {
	b, err := r.getBytes(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func (r *Router) getBytes(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// postJob submits body to url+path with the traceparent header set and
// decodes the worker's Status reply. The status code comes back even on
// refusals so the caller can distinguish "queue full, try the next
// worker" from "bad spec, give up".
func (r *Router) postJob(ctx context.Context, url, path string, body any, tp string) (serve.Status, int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return serve.Status{}, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(buf))
	if err != nil {
		return serve.Status{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return serve.Status{}, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Status{}, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusCreated {
		return serve.Status{}, resp.StatusCode, fmt.Errorf("cluster: POST %s: %s: %s", url+path, resp.Status, strings.TrimSpace(string(b)))
	}
	var st serve.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return serve.Status{}, resp.StatusCode, err
	}
	return st, resp.StatusCode, nil
}
