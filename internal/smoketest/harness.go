// Package smoketest is the live-process harness behind the repo's smoke
// gates. Each gate is a Test function in this package's `smoke`-tagged
// test files, run by `make smoke` (all five) or `make <gate>-smoke`:
//
//	go test -tags smoke -count=1 -run '^TestServe$' ./internal/smoketest/
//
// A Proc supervises one real carbond or carbonfleet and is reaped by its
// test's Cleanup, so a gate that fails part-way still stops every child
// it started. Reference and Compare hold the bit-identity check against
// an in-process run; Scan finds processes a run left behind.
package smoketest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"carbon/internal/core"
	"carbon/internal/serve"
	"carbon/internal/telemetry"
)

// Proc is one supervised daemon: a binary that takes -addr, prints
// "serving on <addr>" on stdout once it listens, and answers
// GET /v1/healthz. carbond and carbonfleet both do.
type Proc struct {
	Addr string // bound host:port, parsed from the banner

	t    testing.TB
	bin  string
	args []string // command line after -addr
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been waited for
	err  error         // the exit status; read only after done is closed
}

// Start launches `bin -addr addr args...`, waits for its banner and a
// reachable /v1/healthz, and registers a t.Cleanup that SIGKILLs and
// reaps it if it is still running when the test ends, pass or fail.
// addr "127.0.0.1:0" picks a free port.
func Start(t testing.TB, bin, addr string, args ...string) *Proc {
	t.Helper()
	p := &Proc{t: t, bin: bin, args: args, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = os.Stderr
	stdout, err := p.cmd.StdoutPipe()
	if err == nil {
		err = p.cmd.Start()
	}
	if err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	sc := bufio.NewScanner(stdout)
	for p.Addr == "" && sc.Scan() {
		if _, after, ok := strings.Cut(sc.Text(), "serving on "); ok {
			p.Addr, _, _ = strings.Cut(after, " ")
		}
	}
	go func() {
		// Keep draining so the child never blocks on stdout; Wait may
		// only run once every read from the pipe has completed.
		_, _ = io.Copy(io.Discard, stdout)
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill() // fails only when it already exited
		<-p.done
	})
	if p.Addr == "" {
		<-p.done
		t.Fatalf("%s exited before announcing its address: %v", p, p.err)
	}
	healthy := Poll(10*time.Second, func() bool {
		resp, err := http.Get(p.URL() + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil
	})
	if !healthy {
		t.Fatalf("%s never became reachable", p)
	}
	return p
}

// Restart starts the same binary with the same arguments on the
// address the exited process held, so its clients and spool carry over.
func (p *Proc) Restart() *Proc {
	p.t.Helper()
	return Start(p.t, p.bin, p.Addr, p.args...)
}

// Kill SIGKILLs the process and waits for it to exit. It models a
// crash, so the exit status is not checked.
func (p *Proc) Kill() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatalf("SIGKILL %s: %v", p, err)
	}
	<-p.done
}

// Term sends SIGTERM and requires a graceful drain: exit 0 within a
// minute.
func (p *Proc) Term() {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatalf("SIGTERM %s: %v", p, err)
	}
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		p.t.Fatalf("%s still running a minute after SIGTERM", p)
	}
	if p.err != nil {
		p.t.Fatalf("%s shutdown: %v (want clean exit 0)", p, p.err)
	}
}

func (p *Proc) String() string { return filepath.Base(p.bin) + "@" + p.Addr }

// URL is the process's base URL.
func (p *Proc) URL() string { return "http://" + p.Addr }

// Poll calls cond every 10ms until it reports true, and reports false
// if timeout passes first. cond may fail the test itself to stop early.
func Poll(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Get fetches path and returns the status code, decoding a 200 body
// into v when v is non-nil. A transport or decode error fails the test.
func (p *Proc) Get(path string, v any) int {
	p.t.Helper()
	resp, err := http.Get(p.URL() + path)
	if err != nil {
		p.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			p.t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// Post submits spec to POST /v1/jobs with the X-Carbon-Tenant and
// traceparent headers set when non-empty. The caller closes the body.
func (p *Proc) Post(spec serve.JobSpec, tenant, traceparent string) *http.Response {
	p.t.Helper()
	body, _ := json.Marshal(spec) // plain fields: cannot fail
	req, err := http.NewRequest(http.MethodPost, p.URL()+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		p.t.Fatalf("submit: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Carbon-Tenant", tenant)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		p.t.Fatalf("submit (seed %d): %v", spec.Seed, err)
	}
	return resp
}

// Submitted is an accepted job.
type Submitted struct {
	ID          string // job ID; a fleet ID when submitted to a router
	Worker      string // X-Carbon-Worker: the worker a router placed it on
	TraceParent string // Traceparent: the job root's span context
}

// Submit posts spec like Post and fails the test unless the job is
// accepted (201).
func (p *Proc) Submit(spec serve.JobSpec, tenant, traceparent string) Submitted {
	p.t.Helper()
	resp := p.Post(spec, tenant, traceparent)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		p.t.Fatalf("submit (seed %d): HTTP %d: %s", spec.Seed, resp.StatusCode, body)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		p.t.Fatalf("submit (seed %d): %v", spec.Seed, err)
	}
	sub := Submitted{ID: st.ID, Worker: resp.Header.Get("X-Carbon-Worker"), TraceParent: resp.Header.Get("Traceparent")}
	p.t.Logf("submitted %s (seed %d) %s", sub.ID, spec.Seed, sub.Worker)
	return sub
}

// status polls job id once. A 502 from a router means the hosting
// worker is unreachable — failover is in flight — so it reports
// ok=false for the caller to poll again; any other non-200 fails the
// test.
func (p *Proc) status(id string) (st serve.Status, ok bool) {
	p.t.Helper()
	code := p.Get("/v1/jobs/"+id, &st)
	if code != http.StatusOK && code != http.StatusBadGateway {
		p.t.Fatalf("status %s: HTTP %d", id, code)
	}
	return st, code == http.StatusOK
}

// WaitGens blocks until job id has completed at least n generations.
// Retries may reset Gens between polls; any sighting of n suffices. A
// job that ends first fails the test: the smoke budgets are sized so
// that cannot happen on any plausible machine.
func (p *Proc) WaitGens(id string, n int) {
	p.t.Helper()
	reached := Poll(2*time.Minute, func() bool {
		st, ok := p.status(id)
		if ok && st.State.Terminal() {
			p.t.Fatalf("job %s ended %s before reaching %d generations — budgets too small to interrupt", id, st.State, n)
		}
		return ok && st.Gens >= n
	})
	if !reached {
		p.t.Fatalf("job %s never reached generation %d", id, n)
	}
}

// WaitState blocks until job id is in state want and returns its
// status. Reaching any other terminal state fails the test at once.
func (p *Proc) WaitState(id string, want serve.State) serve.Status {
	p.t.Helper()
	var st serve.Status
	reached := Poll(2*time.Minute, func() bool {
		var ok bool
		st, ok = p.status(id)
		if ok && st.State != want && st.State.Terminal() {
			p.t.Fatalf("job %s ended %s (err %q), want %s", id, st.State, st.Error, want)
		}
		return ok && st.State == want
	})
	if !reached {
		p.t.Fatalf("job %s never reached %s", id, want)
	}
	return st
}

// Result fetches job id's result record, failing the test unless it is
// served (200).
func (p *Proc) Result(id string) *serve.ResultRecord {
	p.t.Helper()
	rec := new(serve.ResultRecord)
	if code := p.Get("/v1/jobs/"+id+"/result", rec); code != http.StatusOK {
		p.t.Fatalf("result %s: HTTP %d", id, code)
	}
	return rec
}

// ResultCode is the HTTP status GET /v1/jobs/{id}/result answers.
func (p *Proc) ResultCode(id string) int {
	p.t.Helper()
	return p.Get("/v1/jobs/"+id+"/result", nil)
}

// Reference runs spec uninterrupted in this process — the run a served
// job must reproduce bit for bit — and returns it with its LP-solve
// count, counted the way a worker's registry counts it.
func Reference(t testing.TB, spec serve.JobSpec) (*core.Result, int64) {
	t.Helper()
	spec = spec.Normalize()
	mk, err := spec.Market()
	if err != nil {
		t.Fatalf("reference market: %v", err)
	}
	cfg := spec.Config()
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := core.Run(mk, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res, reg.Counter("bcpop.lp_solves").Load()
}

// Compare fails the test unless the served result rec is bit-identical
// to the reference want: budgets, best pairing, best price vector and
// all four convergence-curve slices.
func Compare(t testing.TB, label string, rec *serve.ResultRecord, want *core.Result) {
	t.Helper()
	if rec.Gens != want.Gens || rec.ULEvals != want.ULEvals || rec.LLEvals != want.LLEvals {
		t.Fatalf("%s: budget trace diverged: got %d gens %d/%d, want %d gens %d/%d",
			label, rec.Gens, rec.ULEvals, rec.LLEvals, want.Gens, want.ULEvals, want.LLEvals)
	}
	if rec.BestRevenue != want.Best.Revenue || rec.BestGapPct != want.Best.GapPct ||
		rec.BestTree != want.Best.TreeStr {
		t.Fatalf("%s: best pairing diverged:\n got  (%v, %q, %v)\n want (%v, %q, %v)",
			label, rec.BestRevenue, rec.BestTree, rec.BestGapPct,
			want.Best.Revenue, want.Best.TreeStr, want.Best.GapPct)
	}
	if !reflect.DeepEqual(rec.BestPrice, want.Best.Price) {
		t.Fatalf("%s: best price vector diverged", label)
	}
	if !reflect.DeepEqual(rec.ULCurveX, want.ULCurve.X) || !reflect.DeepEqual(rec.ULCurveY, want.ULCurve.Y) ||
		!reflect.DeepEqual(rec.GapCurveX, want.GapCurve.X) || !reflect.DeepEqual(rec.GapCurveY, want.GapCurve.Y) {
		t.Fatalf("%s: convergence curves diverged", label)
	}
	t.Logf("%s: %d gens, best F %.4f, gap %.4f%% — exact match",
		label, rec.Gens, rec.BestRevenue, rec.BestGapPct)
}

// WaitFile waits up to 30s for a file a daemon writes, such as a spool
// record or a mirrored checkpoint.
func WaitFile(t testing.TB, path, what string) {
	t.Helper()
	appeared := Poll(30*time.Second, func() bool {
		_, err := os.Stat(path)
		return err == nil
	})
	if !appeared {
		t.Fatalf("%s never appeared at %s", what, path)
	}
}

// strays are the long-running binaries this repo can leave behind: the
// daemons themselves plus the smoke test binary that spawns them.
var strays = []string{"carbond", "carbonfleet", "smoketest.test"}

// IsStray reports whether argv0's basename is carbond, carbonfleet or
// smoketest.test: a binary this repo can leave running.
func IsStray(argv0 string) bool { return slices.Contains(strays, filepath.Base(argv0)) }

// ErrNoProcfs is Scan's error on a platform without a Linux-style
// procfs, where it cannot see other processes.
var ErrNoProcfs = errors.New("no procfs on this platform")

// Process is one running process Scan matched.
type Process struct {
	PID   int
	Argv0 string
}

// Scan lists the running processes, other than this one, whose argv[0]
// satisfies match. It walks /proc/<pid>/cmdline.
func Scan(match func(argv0 string) bool) ([]Process, error) {
	if _, err := os.Stat("/proc/self/cmdline"); err != nil {
		return nil, ErrNoProcfs
	}
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	var out []Process
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		// Processes may exit mid-scan; unreadable entries are not ours
		// to report.
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil || len(raw) == 0 {
			continue
		}
		argv0, _, _ := strings.Cut(string(raw), "\x00")
		if match(argv0) {
			out = append(out, Process{PID: pid, Argv0: argv0})
		}
	}
	return out, nil
}
