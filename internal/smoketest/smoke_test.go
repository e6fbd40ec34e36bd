//go:build smoke

package smoketest

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"carbon/internal/cluster"
	"carbon/internal/core"
	"carbon/internal/serve"
)

// The binaries TestMain builds once for every scenario.
var carbond, carbonfleet, carbontop, carbonstat string

// TestMain builds the commands the scenarios drive, runs the scenarios,
// and then fails the run if any process started from those binaries is
// still alive: the teardown check that keeps a gate from leaking
// daemons into the next benchmark.
func TestMain(m *testing.M) {
	os.Exit(run(m))
}

func run(m *testing.M) int {
	dir, err := os.MkdirTemp("", "carbon-smoke-bin-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoketest:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir, "carbon/cmd/carbond", "carbon/cmd/carbonfleet",
		"carbon/cmd/carbontop", "carbon/cmd/carbonstat")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "smoketest: go build: %v\n%s", err, out)
		return 1
	}
	carbond, carbonfleet = filepath.Join(dir, "carbond"), filepath.Join(dir, "carbonfleet")
	carbontop, carbonstat = filepath.Join(dir, "carbontop"), filepath.Join(dir, "carbonstat")

	code := m.Run()
	leaked, err := Scan(func(argv0 string) bool { return strings.HasPrefix(argv0, dir+string(filepath.Separator)) })
	if err != nil && !errors.Is(err, ErrNoProcfs) {
		fmt.Fprintln(os.Stderr, "smoketest: stray scan:", err)
		return 1
	}
	for _, p := range leaked {
		fmt.Fprintf(os.Stderr, "smoketest: pid %d (%s) outlived its scenario\n", p.PID, p.Argv0)
		code = 1
	}
	return code
}

// smokeSpec is fully explicit (no server-side defaulting) so the
// in-process reference is guaranteed to run the same config: ~100
// generations on the 60x5 class, a couple of seconds of work — room to
// interrupt a job twice.
func smokeSpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{
		N: 60, M: 5, Instance: 3, Customers: 1,
		Seed: seed, Pop: 16, ULEvals: 1600, LLEvals: 4800,
		PreySample: 2, Workers: 1,
	}
}

// victimSpec is the job a fleet gate interrupts: double the budget, so
// there is ample room between "checkpoint mirrored" and "finished".
func victimSpec(seed uint64) serve.JobSpec {
	s := smokeSpec(seed)
	s.ULEvals *= 2
	s.LLEvals *= 2
	return s
}

// startCarbond starts a carbond with one job slot that checkpoints
// every generation, spooling to spool.
func startCarbond(t *testing.T, spool string, extra ...string) *Proc {
	t.Helper()
	args := append([]string{"-spool", spool, "-jobs", "1", "-checkpoint-every", "1"}, extra...)
	return Start(t, carbond, "127.0.0.1:0", args...)
}

// startFleet starts three carbond workers under dir/w0..w2 and a
// carbonfleet router spooling to dir/fleet. The router probes fast
// enough that failover completes well under a second after a worker
// dies.
func startFleet(t *testing.T, dir string, extra ...string) (router *Proc, workers []*Proc) {
	t.Helper()
	var urls []string
	for i := 0; i < 3; i++ {
		w := startCarbond(t, filepath.Join(dir, fmt.Sprintf("w%d", i)))
		workers = append(workers, w)
		urls = append(urls, w.URL())
	}
	args := append([]string{"-workers", strings.Join(urls, ","), "-spool", filepath.Join(dir, "fleet"),
		"-probe-every", "150ms", "-probe-timeout", "2s", "-dead-after", "3"}, extra...)
	return Start(t, carbonfleet, "127.0.0.1:0", args...), workers
}

// workerAt returns the worker whose base URL a router reported.
func workerAt(t *testing.T, workers []*Proc, url string) *Proc {
	t.Helper()
	for _, w := range workers {
		if w.URL() == url {
			return w
		}
	}
	t.Fatalf("no worker behind %s", url)
	return nil
}

// failOver SIGKILLs the worker hosting vic once the job is >=4
// generations in and its checkpoint is mirrored into the router's spool
// under dir, waits for the router to declare the worker dead, and
// requires the job to finish resumed (not restarted) on a survivor,
// bit-identical to ref. It returns the killed worker.
func failOver(t *testing.T, dir string, router *Proc, workers []*Proc, vic Submitted, ref *core.Result) *Proc {
	t.Helper()
	victim := workerAt(t, workers, vic.Worker)
	router.WaitGens(vic.ID, 4)
	WaitFile(t, filepath.Join(dir, "fleet", vic.ID+".ckpt.json"), "mirrored checkpoint")
	victim.Kill()
	waitHealth(t, router, "failover", func(h cluster.FleetHealth) bool { return h.Failovers >= 1 && h.Healthy == 2 })
	if st := router.WaitState(vic.ID, serve.StateDone); !st.Resumed {
		t.Fatalf("job %s finished on the survivor without resuming from the mirrored checkpoint", vic.ID)
	}
	Compare(t, "failed-over "+vic.ID, router.Result(vic.ID), ref)
	return victim
}

// waitHealth polls the router's health until ok accepts it.
func waitHealth(t *testing.T, router *Proc, what string, ok func(cluster.FleetHealth) bool) {
	t.Helper()
	var h cluster.FleetHealth
	healthy := Poll(30*time.Second, func() bool {
		h = cluster.FleetHealth{}
		return router.Get("/v1/healthz", &h) == http.StatusOK && ok(h)
	})
	if !healthy {
		t.Fatalf("router never reached the %s state (last: %+v)", what, h)
	}
}
