package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"carbon/internal/checkpoint"
	"carbon/internal/serve"
	"carbon/internal/telemetry"
)

// WorkerStatus is one worker's entry in GET /v1/workers.
type WorkerStatus struct {
	URL     string       `json:"url"`
	Healthy bool         `json:"healthy"`
	Dead    bool         `json:"dead"` // missed probes reached DeadAfter
	Misses  int          `json:"misses"`
	Weight  float64      `json:"weight"`
	Health  serve.Health `json:"health"`
}

// FleetHealth is the router's own GET /v1/healthz payload.
type FleetHealth struct {
	OK         bool   `json:"ok"` // at least one healthy worker
	Policy     string `json:"policy"`
	Workers    int    `json:"workers"`
	Healthy    int    `json:"healthy"`
	Routes     int    `json:"routes"`
	Unfinished int    `json:"unfinished"`
	Failovers  int    `json:"failovers"`
}

// Handler exposes the router over HTTP — the same job surface as a
// single carbond, plus fleet introspection:
//
//	POST   /v1/jobs             admit, route and submit to a worker (201 + Status)
//	GET    /v1/jobs             route table (where every fleet job lives)
//	GET    /v1/jobs/{id}        proxy status from the hosting worker
//	GET    /v1/jobs/{id}/result proxy the final result
//	DELETE /v1/jobs/{id}        cancel on the worker, drop the route
//	GET    /v1/workers          per-worker health, as the router sees it
//	GET    /v1/healthz          fleet summary (policy, healthy count, failovers)
//	GET    /v1/jobs/{id}/events live SSE stream, stitched across failover
//	GET    /metrics/prometheus  the router's own registry in text exposition format
//
// Job IDs on this surface are fleet IDs ("f000001"); the worker that
// hosts a job — and the worker-side ID — is the router's business, and
// survives failover without the client noticing beyond latency.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Routes())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		r.proxyStatus(w, req, req.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, req *http.Request) {
		r.proxyResult(w, req, req.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, req *http.Request) {
		r.ServeJobEvents(w, req, req.PathValue("id"))
	})
	mux.HandleFunc("GET /metrics/prometheus", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.WritePrometheus(w, telemetry.PromTarget{Name: "carbonfleet", Registry: r.metrics})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.handleDelete)
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.WorkerStatuses())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Health())
	})
	return mux
}

// Tenant is the admission identity header. Absent means tenant
// "default" — admission control still applies.
const TenantHeader = "X-Carbon-Tenant"

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	tenant := req.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "default"
	}
	if ok, wait := r.buckets.take(tenant); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(wait.Round(time.Second)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":  fmt.Sprintf("cluster: tenant %q over admission quota", tenant),
			"tenant": tenant,
		})
		return
	}
	var spec serve.JobSpec
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	st, workerURL, code, err := r.Submit(req.Context(), spec, tenant, req.Header.Get("traceparent"))
	if err != nil {
		httpError(w, code, err)
		return
	}
	w.Header().Set("X-Carbon-Worker", workerURL)
	if st.Spec.TraceParent != "" {
		w.Header().Set("Traceparent", st.Spec.TraceParent)
	}
	writeJSON(w, http.StatusCreated, st)
}

// Submit admits, routes and forwards one job. The returned Status is
// the worker's, with the ID rewritten to the fleet ID the client must
// use from now on. Candidates are tried in policy order: a queue-full
// or unreachable worker falls through to the next; a spec rejection
// (400) stops immediately — every worker would say the same.
func (r *Router) Submit(ctx context.Context, spec serve.JobSpec, tenant, callerTP string) (serve.Status, string, int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return serve.Status{}, "", http.StatusServiceUnavailable, fmt.Errorf("cluster: router closed")
	}
	r.seq++
	fid := fmt.Sprintf("f%06d", r.seq)
	r.mu.Unlock()

	sp := r.startSpan(callerTP, "route.submit").
		Attr("fleet_id", fid).Attr("tenant", tenant)
	defer sp.End()
	// Every hop below — and every later incarnation of the job — parents
	// into the router's submit span, so one trace covers the job's whole
	// fleet life regardless of which workers hosted it.
	tp := callerTP
	if c := sp.Context(); c.Valid() {
		tp = c.TraceParent()
	}

	order, err := r.candidates()
	if err != nil {
		return serve.Status{}, "", http.StatusInternalServerError, err
	}
	if len(order) == 0 {
		sp.Attr("error", true)
		return serve.Status{}, "", http.StatusServiceUnavailable, fmt.Errorf("cluster: no healthy workers")
	}
	var lastErr error
	for _, idx := range order {
		dst := r.workers[idx]
		st, code, err := r.postJob(ctx, dst.url, "/v1/jobs", spec, tp)
		if code == http.StatusBadRequest {
			sp.Attr("error", true)
			return serve.Status{}, "", code, err
		}
		if err != nil {
			lastErr = err
			continue
		}
		rt := &route{
			FleetID: fid, Worker: dst.url, JobID: st.ID,
			Spec: st.Spec, Tenant: tenant, TraceParent: tp,
		}
		// The route is spooled before the client hears "created": once
		// Submit returns, a router crash cannot lose track of the job.
		if werr := checkpoint.WriteJSON(r.routePath(fid), rt); werr != nil {
			r.deleteWorkerJob(dst.url, st.ID)
			sp.Attr("error", true)
			return serve.Status{}, "", http.StatusInternalServerError, werr
		}
		r.mu.Lock()
		r.routes[fid] = rt
		r.mu.Unlock()
		sp.Attr("worker", dst.url).Attr("job", st.ID)
		st.ID = fid
		return st, dst.url, http.StatusCreated, nil
	}
	sp.Attr("error", true)
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no worker accepted the job")
	}
	return serve.Status{}, "", http.StatusServiceUnavailable,
		fmt.Errorf("cluster: all workers refused: %w", lastErr)
}

func (r *Router) lookup(id string) (*route, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.routes[id]
	return rt, ok
}

func (r *Router) proxyStatus(w http.ResponseWriter, req *http.Request, id string) {
	rt, ok := r.lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("cluster: no job %s", id))
		return
	}
	var st serve.Status
	if err := r.getJSON(req.Context(), rt.Worker+"/v1/jobs/"+rt.JobID, &st); err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("cluster: job %s on %s: %w", id, rt.Worker, err))
		return
	}
	st.ID = id
	if st.Spec.TraceParent != "" {
		w.Header().Set("Traceparent", st.Spec.TraceParent)
	}
	w.Header().Set("X-Carbon-Worker", rt.Worker)
	writeJSON(w, http.StatusOK, st)
}

func (r *Router) proxyResult(w http.ResponseWriter, req *http.Request, id string) {
	rt, ok := r.lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("cluster: no job %s", id))
		return
	}
	b, err := r.getBytes(req.Context(), rt.Worker+"/v1/jobs/"+rt.JobID+"/result")
	if err != nil {
		// The worker answered but refused (result not ready → 409 inside
		// the error string) or is unreachable. Either way the honest
		// translation for "not terminal yet" is 409; a dead worker with
		// an unfinished job is about to fail over, which is the same
		// "try again" story.
		httpError(w, http.StatusConflict, fmt.Errorf("cluster: job %s: %w", id, err))
		return
	}
	var rec serve.ResultRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	rec.ID = id
	w.Header().Set("X-Carbon-Worker", rt.Worker)
	writeJSON(w, http.StatusOK, rec)
}

func (r *Router) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	rt, ok := r.lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("cluster: no job %s", id))
		return
	}
	r.deleteWorkerJob(rt.Worker, rt.JobID)
	r.mu.Lock()
	delete(r.routes, id)
	// The pump still holds the stream: it sees the route gone, closes
	// the ring and so ends every attached client with eof.
	delete(r.streams, id)
	r.mu.Unlock()
	_ = os.Remove(r.routePath(id))
	_ = os.Remove(r.mirrorPath(id))
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "canceled"})
}

func (r *Router) deleteWorkerJob(url, jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, url+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	if resp, err := r.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// Routes returns the route table sorted by fleet ID.
func (r *Router) Routes() []route {
	r.mu.Lock()
	out := make([]route, 0, len(r.routes))
	for _, rt := range r.routes {
		out = append(out, *rt)
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].FleetID < out[b].FleetID })
	return out
}

// WorkerStatuses reports the fleet as the router sees it.
func (r *Router) WorkerStatuses() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerStatus, len(r.workers))
	for i, w := range r.workers {
		out[i] = WorkerStatus{
			URL: w.url, Healthy: w.healthy, Dead: w.misses >= r.opts.DeadAfter,
			Misses: w.misses, Weight: w.weight, Health: w.health,
		}
	}
	return out
}

// Health summarizes the fleet.
func (r *Router) Health() FleetHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := FleetHealth{
		Policy:    r.opts.Policy,
		Workers:   len(r.workers),
		Failovers: r.failovers,
		Routes:    len(r.routes),
	}
	if h.Policy == "" {
		h.Policy = PolicyRoundRobin
	}
	for _, w := range r.workers {
		if w.healthy {
			h.Healthy++
		}
	}
	for _, rt := range r.routes {
		if !rt.Done {
			h.Unfinished++
		}
	}
	h.OK = h.Healthy > 0
	return h
}

// Probe runs one upkeep round on demand — tests and the fleet smoke use
// it to advance the router deterministically instead of sleeping.
func (r *Router) Probe() { r.probeTick() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
