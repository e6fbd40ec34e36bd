package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"carbon/internal/cluster"
	"carbon/internal/core"
	"carbon/internal/par"
	"carbon/internal/serve"
	"carbon/internal/span"
	"carbon/internal/telemetry"
)

// serviceCheckpointEvery makes each job write two checkpoints (at its
// fifth and tenth generation) beside its streaming reads; carbond's
// default of 25 would never fire on jobs this short.
const serviceCheckpointEvery = 5

// serviceSetups is how many times set-up brings the stack up (keeping the
// last one); its median is setup_s.
const serviceSetups = 21

// jobTimeout bounds one job end to end, so a hung job fails the run
// instead of stalling it.
const jobTimeout = 60 * time.Second

// jobSpec is a service job: n100_m5 at population 16, sz.Gens
// generations. Short jobs keep the serve and cluster layers a large share
// of each job's latency.
func jobSpec(seed uint64, gens int) serve.JobSpec {
	return serve.JobSpec{N: 100, M: 5, Seed: seed, Pop: 16, ULEvals: 16 * gens, LLEvals: 16 * 2 * gens, PreySample: 2, Workers: 1}
}

// stack is two job managers, each behind serve.APIHandler on a loopback
// listener, and a round-robin cluster router in front of them.
type stack struct {
	dir     string
	mgrs    []*serve.Manager
	regs    []*telemetry.Registry
	servers []*http.Server
	router  *cluster.Router
	url     string
	serving sync.WaitGroup
}

func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

func startStack(dir string) (*stack, error) {
	s := &stack{dir: dir}
	var urls []string
	for i := 0; i < 2; i++ {
		reg := telemetry.NewRegistry()
		m, err := serve.NewManager(serve.Options{
			Workers:         1,
			SpoolDir:        filepath.Join(dir, fmt.Sprintf("worker%d", i)),
			CheckpointEvery: serviceCheckpointEvery,
			Metrics:         reg,
			Spans:           true,
		})
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.mgrs = append(s.mgrs, m)
		s.regs = append(s.regs, reg)
		u, err := s.serve(serve.APIHandler(m))
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		urls = append(urls, u)
	}
	r, err := cluster.NewRouter(cluster.Options{
		Workers:  urls,
		Policy:   "round-robin",
		SpoolDir: filepath.Join(dir, "router"),
		Spans:    true,
	})
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.router = r
	if s.url, err = s.serve(r.Handler()); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// close stops the listeners, the router and the managers and waits for
// every serving goroutine to return.
func (s *stack) close() error {
	var errs []error
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	s.serving.Wait()
	if s.router != nil {
		errs = append(errs, s.router.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, m := range s.mgrs {
		errs = append(errs, m.Close(ctx))
	}
	return errors.Join(errs...)
}

// spans reads every span file the stack wrote: one per job plus the
// router's.
func (s *stack) spans() ([]span.Record, error) {
	files, err := filepath.Glob(filepath.Join(s.dir, "*", "*.spans.jsonl"))
	if err != nil {
		return nil, err
	}
	var out []span.Record
	for _, f := range files {
		recs, _, err := span.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// client is one closed-loop user with a single connection to the router.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

// call sends one request under a span (propagated as traceparent), checks
// the status code and decodes the JSON body into out when out is non-nil.
func (cl *client) call(ctx context.Context, tr *span.Tracer, parent span.Context, name, method, path string, body []byte, want int, out any) error {
	sp := tr.Start(parent, name).Kind("http")
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if c := sp.Context(); c.Valid() {
		req.Header.Set("traceparent", c.TraceParent())
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// stream follows a job's SSE stream until its eof frame.
func (cl *client) stream(ctx context.Context, tr *span.Tracer, parent span.Context, path string) error {
	sp := tr.Start(parent, "http.events").Kind("http")
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: eof" {
			_, err := io.Copy(io.Discard, resp.Body) // let the connection be reused
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("GET %s: stream ended without eof", path)
}

// jobSample is one job's client-side and server-side timeline.
type jobSample struct {
	index           int // submission order; the spec is index mod len(specs)
	submit, result  time.Duration
	latency         time.Duration // POST sent → result received
	eof             time.Time
	status          serve.Status
	hash            string
	err             error
	instrumented    bool
	queueWait, runT time.Duration
}

// job submits spec through the router, follows its event stream to the
// end, fetches the result and the final status, then deletes the job so
// the managers' tables and spools stay small. With tr non-nil every
// request gets a span under one "job" span below parent.
func (cl *client) job(spec serve.JobSpec, tr *span.Tracer, parent span.Context) jobSample {
	js := jobSample{instrumented: tr != nil}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	if tr != nil {
		sp := tr.Start(parent, "job").Kind("http").Attr("seed", spec.Seed)
		defer sp.End()
		parent = sp.Context()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		js.err = err
		return js
	}
	t0 := time.Now()
	var st serve.Status
	if js.err = cl.call(ctx, tr, parent, "http.submit", http.MethodPost, "/v1/jobs", body, http.StatusCreated, &st); js.err != nil {
		return js
	}
	js.submit = time.Since(t0)
	id := "/v1/jobs/" + st.ID
	if js.err = cl.stream(ctx, tr, parent, id+"/events"); js.err != nil {
		return js
	}
	js.eof = time.Now()
	var rec serve.ResultRecord
	if js.err = cl.call(ctx, tr, parent, "http.result", http.MethodGet, id+"/result", nil, http.StatusOK, &rec); js.err != nil {
		return js
	}
	js.latency = time.Since(t0)
	js.result = time.Since(js.eof)
	js.hash, js.err = resultHash(&rec)
	if js.err != nil {
		return js
	}
	if js.err = cl.call(ctx, tr, parent, "http.status", http.MethodGet, id, nil, http.StatusOK, &js.status); js.err != nil {
		return js
	}
	if s := js.status; s.Started != nil && s.Finished != nil {
		js.queueWait = s.Started.Sub(s.Submitted)
		js.runT = s.Finished.Sub(*s.Started)
	}
	js.err = cl.call(ctx, tr, parent, "http.delete", http.MethodDelete, id, nil, http.StatusOK, nil)
	return js
}

// resultHash identifies a result independently of job ID and spec echo.
func resultHash(rec *serve.ResultRecord) (string, error) {
	r := *rec
	r.ID, r.Spec = "", serve.JobSpec{}
	b, err := json.Marshal(&r)
	if err != nil {
		return "", err
	}
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:8]), nil
}

// closedLoop runs one client, which submits its next job only after the
// previous one's result arrived, over the spec list in order. One job
// computes at a time, so the second core is left to the HTTP, spool and
// router goroutines. Two clients would keep both cores computing, and any
// CPU the host then takes away shows up several-fold as queueing in job
// latency. New
// jobs stop at a pass boundary once the budget is spent, so the job mix
// is exactly whole passes; a traced run needs two, so that every spec
// runs both instrumented and bare.
func (c *runCtx) closedLoop(url string, specs []serve.JobSpec) (samples []jobSample, wall time.Duration, rss float64) {
	n := len(specs)
	minPasses := 1
	if c.traced {
		minPasses = 2
	}
	cl := newClient(url)
	defer cl.hc.CloseIdleConnections()
	start := time.Now()
	for j := 0; j%n != 0 || j < minPasses*n || time.Since(start) < c.budget; j++ {
		// Alternate instrumented and bare jobs, flipping the parity
		// every pass so each spec runs both ways.
		var tr *span.Tracer
		if (j+j/n)%2 == 0 {
			tr = c.tr // nil in an untraced run
		}
		s := cl.job(specs[j%n], tr, c.root.Context())
		s.index = j
		samples = append(samples, s)
		if j == n-1 {
			rss = maxRSSMiB() // one pass of jobs, however fast the machine
		}
	}
	return samples, time.Since(start), rss
}

// runService is the service workload: set-up brings the stack up
// serviceSetups times (keeping the last), the closed loop runs whole
// passes over sz.Items job specs, and after timing every job's result is
// checked bit for bit against an in-process core.Run of its spec.
func runService(c *runCtx, sz size) error {
	specs := make([]serve.JobSpec, sz.Items)
	for i := range specs {
		specs[i] = jobSpec(subSeed(c.seed, i), sz.Gens)
	}
	base, err := os.MkdirTemp(c.workDir, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	var (
		setups []time.Duration
		st     *stack
	)
	for k := 0; k < serviceSetups; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		t := time.Now()
		if st, err = startStack(filepath.Join(base, fmt.Sprint(k))); err != nil {
			return err
		}
		setups = append(setups, time.Since(t))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	samples, wall, rss := c.closedLoop(st.url, specs)
	runtime.ReadMemStats(&m1)
	gens := st.regs[0].Counter("core.generations").Load() + st.regs[1].Counter("core.generations").Load()
	if err := st.close(); err != nil {
		return err
	}
	if c.traced {
		c.regs = st.regs
		c.allocsPerGen = float64(m1.Mallocs-m0.Mallocs) / float64(gens)
		if c.fileSpans, err = st.spans(); err != nil {
			return err
		}
	}

	// References, after timing: each spec run in process.
	refs := make([]string, len(specs))
	results := make([]*core.Result, len(specs))
	errs := make([]error, len(specs))
	par.ForEach(len(specs), 2, func(i int) {
		spec := specs[i].Normalize()
		mk, err := spec.Market()
		if err != nil {
			errs[i] = err
			return
		}
		if results[i], errs[i] = core.Run(mk, spec.Config()); errs[i] == nil {
			refs[i], errs[i] = resultHash(serve.NewResultRecord("", spec, results[i]))
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}

	var (
		lat, queue, runT, tail, submit, result []float64
		bare, traced                           = make([][]float64, len(specs)), make([][]float64, len(specs))
		gaps, revenues                         []float64
	)
	for _, s := range samples {
		i := s.index % len(specs)
		c.rec.check(s.err == nil && s.status.State == serve.StateDone && s.hash == refs[i],
			"job %d (spec %d): state %q, result %s want %s: %v", s.index, i, s.status.State, s.hash, refs[i], s.err)
		if s.err != nil || s.status.Finished == nil {
			continue
		}
		lat = append(lat, ms(s.latency))
		queue = append(queue, ms(s.queueWait))
		runT = append(runT, ms(s.runT))
		tail = append(tail, ms(s.eof.Sub(*s.status.Finished)))
		submit = append(submit, ms(s.submit))
		result = append(result, ms(s.result))
		if s.instrumented {
			traced[i] = append(traced[i], ms(s.latency))
		} else {
			bare[i] = append(bare[i], ms(s.latency))
		}
	}
	for _, r := range results {
		gaps = append(gaps, r.Best.GapPct)
		revenues = append(revenues, r.Best.Revenue)
	}
	c.setOutcome(setups, float64(len(samples))/wall.Seconds(), lat, rss, gaps, revenues)
	c.rec.set("job_latency_ms.p90", percentile(lat, 0.9), "ms")
	c.rec.set("serve.queue_wait_ms.p50", median(queue), "ms")
	c.rec.set("serve.queue_wait_ms.p90", percentile(queue, 0.9), "ms")
	c.rec.set("serve.run_ms.p50", median(runT), "ms")
	c.rec.set("serve.stream_tail_ms.p50", median(tail), "ms")
	c.rec.set("cluster.submit_ms.p50", median(submit), "ms")
	c.rec.set("cluster.submit_ms.p90", percentile(submit, 0.9), "ms")
	c.rec.set("cluster.result_ms.p50", median(result), "ms")
	var h hasher
	for _, r := range refs {
		h.s(r)
	}
	c.rec.Det["result_hash"] = h.sum()
	c.rec.Det["gens"] = fmt.Sprint(len(specs) * sz.Gens)
	if c.traced {
		c.traceOverhead(traced, bare)
	}
	spec := specs[0].Normalize()
	mk, err := spec.Market()
	if err != nil {
		return err
	}
	return c.probe(mk, spec.Config())
}
