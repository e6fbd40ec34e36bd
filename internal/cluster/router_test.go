package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"carbon/internal/core"
	"carbon/internal/serve"
	"carbon/internal/telemetry"
)

func tinySpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{
		N: 60, M: 5, Instance: 3,
		Seed: seed, Pop: 16, ULEvals: 160, LLEvals: 480,
		PreySample: 2, Workers: 1,
	}
}

func longSpec(seed uint64) serve.JobSpec {
	s := tinySpec(seed)
	s.ULEvals, s.LLEvals = 16*400, 32*400
	return s
}

// reference is the uninterrupted in-process run — the bits every routed
// job must reproduce no matter how many workers it crossed.
func reference(t testing.TB, spec serve.JobSpec) *core.Result {
	t.Helper()
	spec = spec.Normalize()
	mk, err := spec.Market()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(mk, spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testWorker boots a real carbond-equivalent: a serve.Manager behind
// its API handler on an ephemeral listener.
func testWorker(t *testing.T, opts serve.Options) (*serve.Manager, *httptest.Server) {
	t.Helper()
	if opts.SpoolDir == "" {
		opts.SpoolDir = t.TempDir()
	}
	m, err := serve.NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.APIHandler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m, srv
}

// testWorkerObs is testWorker with the telemetry surface attached —
// the same mux shape cmd/carbond serves, so the worker exposes its own
// carbond_* families on /metrics/prometheus.
func testWorkerObs(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts.Metrics = reg
	if opts.SpoolDir == "" {
		opts.SpoolDir = t.TempDir()
	}
	m, err := serve.NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", serve.APIHandler(m))
	mux.Handle("/", telemetry.Handler(map[string]*telemetry.Registry{"carbond": reg}))
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return srv
}

func newTestRouter(t *testing.T, opts Options) *Router {
	t.Helper()
	if opts.SpoolDir == "" {
		opts.SpoolDir = t.TempDir()
	}
	if opts.ProbeEvery == 0 {
		// Probing is driven explicitly via Probe() so tests are
		// deterministic; the background loop just idles.
		opts.ProbeEvery = time.Hour
	}
	r, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func do(t *testing.T, h http.Handler, method, path string, body any, hdr map[string]string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	// Generous: a race-instrumented engine on a loaded single-core
	// machine runs the long failover jobs 10-20x slower than bare.
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitDone(t *testing.T, h http.Handler, id string) {
	t.Helper()
	waitFor(t, "fleet job "+id, func() bool {
		rr, body := do(t, h, "GET", "/v1/jobs/"+id, nil, nil)
		if rr.Code != http.StatusOK {
			return false
		}
		var st serve.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == serve.StateDead {
			t.Fatalf("fleet job %s died: %s", id, st.Error)
		}
		return st.State == serve.StateDone
	})
}

func fetchResult(t *testing.T, h http.Handler, id string) *serve.ResultRecord {
	t.Helper()
	rr, body := do(t, h, "GET", "/v1/jobs/"+id+"/result", nil, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("result %s: got %d: %s", id, rr.Code, body)
	}
	rec := new(serve.ResultRecord)
	if err := json.Unmarshal(body, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func assertRecordMatches(t *testing.T, rec *serve.ResultRecord, want *core.Result) {
	t.Helper()
	if rec.Gens != want.Gens || rec.ULEvals != want.ULEvals || rec.LLEvals != want.LLEvals {
		t.Fatalf("budget trace diverged: got %d gens %d/%d, want %d gens %d/%d",
			rec.Gens, rec.ULEvals, rec.LLEvals, want.Gens, want.ULEvals, want.LLEvals)
	}
	if rec.BestRevenue != want.Best.Revenue || rec.BestGapPct != want.Best.GapPct ||
		rec.BestTree != want.Best.TreeStr || !reflect.DeepEqual(rec.BestPrice, want.Best.Price) {
		t.Fatalf("best pairing diverged:\n got  (%v, %q, %v)\n want (%v, %q, %v)",
			rec.BestRevenue, rec.BestTree, rec.BestGapPct,
			want.Best.Revenue, want.Best.TreeStr, want.Best.GapPct)
	}
	if !reflect.DeepEqual(rec.ULCurveX, want.ULCurve.X) || !reflect.DeepEqual(rec.ULCurveY, want.ULCurve.Y) {
		t.Fatal("convergence curves diverged")
	}
}

func TestRouterShardsAndProxies(t *testing.T) {
	_, w1 := testWorker(t, serve.Options{Workers: 2})
	_, w2 := testWorker(t, serve.Options{Workers: 2})
	r := newTestRouter(t, Options{Workers: []string{w1.URL, w2.URL}})
	h := r.Handler()

	// Round-robin spreads consecutive submissions across both workers.
	hosts := map[string]int{}
	var ids []string
	for i := 0; i < 4; i++ {
		rr, body := do(t, h, "POST", "/v1/jobs", tinySpec(uint64(70+i)), nil)
		if rr.Code != http.StatusCreated {
			t.Fatalf("submit %d: got %d: %s", i, rr.Code, body)
		}
		var st serve.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.ID != fmt.Sprintf("f%06d", i+1) {
			t.Fatalf("fleet ID %q", st.ID)
		}
		ids = append(ids, st.ID)
		hosts[rr.Header().Get("X-Carbon-Worker")]++
	}
	if hosts[w1.URL] != 2 || hosts[w2.URL] != 2 {
		t.Fatalf("round-robin spread %v", hosts)
	}

	for i, id := range ids {
		waitDone(t, h, id)
		assertRecordMatches(t, fetchResult(t, h, id), reference(t, tinySpec(uint64(70+i))))
	}

	// The route table and fleet health agree.
	var fh FleetHealth
	if rr, body := do(t, h, "GET", "/v1/healthz", nil, nil); rr.Code == http.StatusOK {
		if err := json.Unmarshal(body, &fh); err != nil {
			t.Fatal(err)
		}
	}
	if !fh.OK || fh.Healthy != 2 || fh.Routes != 4 || fh.Failovers != 0 {
		t.Fatalf("fleet health %+v", fh)
	}

	// Delete removes the route and the worker's job.
	if rr, _ := do(t, h, "DELETE", "/v1/jobs/"+ids[0], nil, nil); rr.Code != http.StatusOK {
		t.Fatalf("delete: got %d", rr.Code)
	}
	if rr, _ := do(t, h, "GET", "/v1/jobs/"+ids[0], nil, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("deleted fleet job still visible: got %d", rr.Code)
	}
	if rr, _ := do(t, h, "GET", "/v1/jobs/zzz", nil, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown fleet job: got %d", rr.Code)
	}
}

// TestRouterFailover is the subsystem's core promise end to end: a
// worker dies mid-job, the router re-homes the job onto the survivor
// from the mirrored checkpoint, and the finished result is bit-identical
// to a run that never moved.
func TestRouterFailover(t *testing.T) {
	_, w1 := testWorker(t, serve.Options{Workers: 1, CheckpointEvery: 1})
	m2, w2 := testWorker(t, serve.Options{Workers: 1, CheckpointEvery: 1})
	r := newTestRouter(t, Options{
		Workers: []string{w1.URL, w2.URL}, DeadAfter: 2, Spans: true,
	})
	h := r.Handler()

	spec := longSpec(81)
	rr, body := do(t, h, "POST", "/v1/jobs", spec, nil)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: got %d: %s", rr.Code, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if got := rr.Header().Get("X-Carbon-Worker"); got != w1.URL {
		t.Fatalf("round-robin first pick %q, want %q", got, w1.URL)
	}

	// Let the job run long enough to checkpoint, then mirror it.
	waitFor(t, "checkpoint mirror", func() bool {
		r.Probe()
		_, err := os.Stat(r.mirrorPath(st.ID))
		return err == nil
	})

	// Kill worker 1 and probe past DeadAfter: the route must move to
	// worker 2 with a restore submission.
	w1.Close()
	r.Probe()
	r.Probe()
	rt, ok := r.lookup(st.ID)
	if !ok {
		t.Fatal("route vanished")
	}
	if rt.Worker != w2.URL || rt.Failovers != 1 {
		t.Fatalf("route after failover: %+v", rt)
	}
	if h := r.Health(); h.Failovers != 1 || h.Healthy != 1 {
		t.Fatalf("fleet health after failover: %+v", h)
	}

	waitDone(t, h, st.ID)
	assertRecordMatches(t, fetchResult(t, h, st.ID), reference(t, spec))

	// The survivor really resumed mid-stream rather than recomputing
	// from scratch.
	var resumed bool
	for _, ws := range m2.List() {
		resumed = resumed || ws.Resumed
	}
	if !resumed {
		t.Fatal("survivor did not resume from the mirrored checkpoint")
	}
}

// TestRouterServesOwnMetrics: the router's /metrics/prometheus renders
// the router's own registry under the carbonfleet prefix — here its
// failover counter after one forced failover — and nothing of the
// workers', which serve their own metrics.
func TestRouterServesOwnMetrics(t *testing.T) {
	w1 := testWorkerObs(t, serve.Options{Workers: 1, CheckpointEvery: 1})
	w2 := testWorkerObs(t, serve.Options{Workers: 1, CheckpointEvery: 1})
	r := newTestRouter(t, Options{Workers: []string{w1.URL, w2.URL}, DeadAfter: 2})
	h := r.Handler()

	rr, body := do(t, h, "POST", "/v1/jobs", longSpec(81), nil)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: got %d: %s", rr.Code, body)
	}
	if got := rr.Header().Get("X-Carbon-Worker"); got != w1.URL {
		t.Fatalf("round-robin first pick %q, want %q", got, w1.URL)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	w1.Close()
	r.Probe()
	r.Probe()
	if h := r.Health(); h.Failovers != 1 {
		t.Fatalf("fleet health after the kill: %+v", h)
	}
	// The survivor runs the job to the end, so its own registry holds
	// engine counters the router must not re-export.
	waitDone(t, h, st.ID)
	r.Probe()

	rr, body = do(t, h, "GET", "/metrics/prometheus", nil, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("router metrics: got %d", rr.Code)
	}
	text := string(body)
	if !strings.Contains(text, "\ncarbonfleet_cluster_failovers 1\n") {
		t.Fatalf("router metrics lack carbonfleet_cluster_failovers 1:\n%s", text)
	}
	if strings.Contains(text, "worker=") {
		t.Fatalf("router metrics carry a worker label:\n%s", text)
	}
	if strings.Contains(text, "carbond_") {
		t.Fatalf("router metrics carry a worker's carbond_ family:\n%s", text)
	}
}

// TestRouterSpoolRecovery: a restarted router reattaches to in-flight
// jobs through its spool — the client's fleet IDs keep working.
func TestRouterSpoolRecovery(t *testing.T) {
	_, w1 := testWorker(t, serve.Options{Workers: 1})
	spool := t.TempDir()
	r1 := newTestRouter(t, Options{Workers: []string{w1.URL}, SpoolDir: spool})
	rr, body := do(t, r1.Handler(), "POST", "/v1/jobs", tinySpec(91), nil)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: got %d: %s", rr.Code, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// Hostile debris next to the route: quarantined files burn their
	// IDs, stray names are ignored.
	if err := os.WriteFile(filepath.Join(spool, "f000007.route.json.corrupt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, "f000003.route.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newTestRouter(t, Options{Workers: []string{w1.URL}, SpoolDir: spool})
	h := r2.Handler()
	waitDone(t, h, st.ID)
	assertRecordMatches(t, fetchResult(t, h, st.ID), reference(t, tinySpec(91)))
	if _, err := os.Stat(filepath.Join(spool, "f000003.route.json.corrupt")); err != nil {
		t.Fatalf("torn route not quarantined: %v", err)
	}
	// Burned IDs: the next submission must start past f000007.
	rr, body = do(t, h, "POST", "/v1/jobs", tinySpec(92), nil)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit after recovery: got %d: %s", rr.Code, body)
	}
	var st2 serve.Status
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.ID != "f000008" {
		t.Fatalf("post-recovery fleet ID %q, want f000008", st2.ID)
	}
}

func TestRouterAdmission(t *testing.T) {
	_, w1 := testWorker(t, serve.Options{Workers: 1, QueueDepth: 64})
	r := newTestRouter(t, Options{
		Workers: []string{w1.URL},
		Rate:    0.001, Burst: 2, // two submissions, then a long dry spell
		Quota: map[string]float64{"vip": 1000},
	})
	h := r.Handler()

	for i := 0; i < 2; i++ {
		if rr, body := do(t, h, "POST", "/v1/jobs", tinySpec(uint64(95+i)), nil); rr.Code != http.StatusCreated {
			t.Fatalf("submit %d: got %d: %s", i, rr.Code, body)
		}
	}
	rr, body := do(t, h, "POST", "/v1/jobs", tinySpec(97), nil)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: got %d: %s", rr.Code, body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Admission is per tenant: the throttled default tenant does not
	// starve a tenant with its own quota.
	vip := map[string]string{TenantHeader: "vip"}
	if rr, body := do(t, h, "POST", "/v1/jobs", tinySpec(98), vip); rr.Code != http.StatusCreated {
		t.Fatalf("vip submit: got %d: %s", rr.Code, body)
	}
}

func TestPolicyRanking(t *testing.T) {
	views := []workerView{
		{index: 0, healthy: true, queued: 5, running: 1, weight: 1},
		{index: 1, healthy: false, queued: 0, running: 0, weight: 1},
		{index: 2, healthy: true, queued: 0, running: 1, weight: 1},
		{index: 3, healthy: true, queued: 2, running: 0, weight: 8},
	}
	ll, err := rank(PolicyLeastLoaded, views, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ll, []int{2, 3, 0}) {
		t.Fatalf("least-loaded order %v", ll)
	}
	wt, err := rank(PolicyWeighted, views, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Weighted: worker 3 carries weight 8, so its 2 jobs score 3/8 —
	// ahead of idle worker 2's 1/1.
	if !reflect.DeepEqual(wt, []int{3, 2, 0}) {
		t.Fatalf("weighted order %v", wt)
	}
	rr1, err := rank(PolicyRoundRobin, views, 0)
	if err != nil {
		t.Fatal(err)
	}
	rr2, err := rank(PolicyRoundRobin, views, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr1, []int{0, 2, 3}) || !reflect.DeepEqual(rr2, []int{2, 3, 0}) {
		t.Fatalf("round-robin orders %v / %v", rr1, rr2)
	}
	if _, err := rank("mesh", views, 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestBucketRefill(t *testing.T) {
	now := time.Unix(0, 0)
	bs := newBuckets(1, 1, nil, func() time.Time { return now })
	if ok, _ := bs.take("a"); !ok {
		t.Fatal("fresh bucket refused")
	}
	ok, wait := bs.take("a")
	if ok || wait < time.Second {
		t.Fatalf("dry bucket: ok=%v wait=%v", ok, wait)
	}
	now = now.Add(1500 * time.Millisecond)
	if ok, _ := bs.take("a"); !ok {
		t.Fatal("refilled bucket refused")
	}
	// Tenants are independent.
	if ok, _ := bs.take("b"); !ok {
		t.Fatal("tenant b throttled by tenant a")
	}
	// A zero quota blocks the tenant outright... but rate 0 in the
	// default means unlimited; quota overrides use the same convention.
	free := newBuckets(0, 0, nil, func() time.Time { return now })
	for i := 0; i < 100; i++ {
		if ok, _ := free.take("x"); !ok {
			t.Fatal("unlimited bucket refused")
		}
	}
}

// BenchmarkRouteSubmit measures pure router overhead per submission:
// admission, policy ranking, spool write, proxy hop — against a worker
// stub that accepts instantly.
func BenchmarkRouteSubmit(b *testing.B) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch {
		case req.URL.Path == "/v1/healthz":
			fmt.Fprint(w, `{"ok":true}`)
		default:
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":"j000001","state":"queued","spec":{"n":60,"m":5},"submitted":"2026-01-01T00:00:00Z"}`)
		}
	}))
	defer stub.Close()
	r, err := NewRouter(Options{
		Workers: []string{stub.URL}, SpoolDir: b.TempDir(), ProbeEvery: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	spec := tinySpec(1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.Submit(ctx, spec, "bench", ""); err != nil {
			b.Fatal(err)
		}
	}
}
