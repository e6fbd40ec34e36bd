package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"carbon/internal/checkpoint"
	"carbon/internal/fault"
	"carbon/internal/telemetry"
)

// TestRetryRecoversBitIdentical is the tentpole's serve-layer contract:
// an LP outage degrades one attempt, the retry resumes from the last
// clean checkpoint, and the final result is bit-identical to a run that
// never saw a fault — retries absorb the outage instead of publishing a
// degraded answer.
func TestRetryRecoversBitIdentical(t *testing.T) {
	reg := telemetry.NewRegistry()
	// The window opens after generation 1's solve wave and fires once;
	// by the retry it is spent, so attempt 2 runs clean.
	inj := fault.New(1)
	inj.Site(fault.SiteLPSolve, fault.Rule{Every: 1, After: 20, Limit: 1})
	m := newTestManager(t, Options{
		CheckpointEvery: 1,
		MaxAttempts:     3,
		RetryBackoff:    time.Millisecond,
		Fault:           inj,
		Metrics:         reg,
	})
	spec := tinySpec(11)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, StateDone)
	if done.Attempts != 2 {
		t.Fatalf("job finished after %d attempts, want 2", done.Attempts)
	}
	if got := reg.Counter("serve.retries").Load(); got != 1 {
		t.Fatalf("serve.retries = %d, want 1", got)
	}
	if _, fired := inj.Lookup(fault.SiteLPSolve).Stats(); fired != 1 {
		t.Fatalf("fault site fired %d times — the test exercised nothing", fired)
	}
	rec, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, rec, reference(t, spec))
}

// TestDeadLetterAfterMaxAttempts: a permanent outage exhausts the
// attempt budget and the job is dead-lettered — terminal, attempts
// reported, error preserved — and a restarted manager recovers it as
// dead instead of retrying forever or forgetting it.
func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	spool := t.TempDir()
	reg := telemetry.NewRegistry()
	inj := fault.New(1)
	inj.Site(fault.SiteLPSolve, fault.Rule{Every: 1}) // every solve fails
	m1, err := NewManager(Options{
		SpoolDir:     spool,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		Fault:        inj,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(tinySpec(13))
	if err != nil {
		t.Fatal(err)
	}
	dead := waitState(t, m1, st.ID, StateDead)
	if dead.Attempts != 3 {
		t.Fatalf("dead job reports %d attempts, want 3", dead.Attempts)
	}
	if !strings.Contains(dead.Error, "fault") {
		t.Fatalf("dead job error %q does not name the fault", dead.Error)
	}
	if got := reg.Counter("serve.jobs_dead").Load(); got != 1 {
		t.Fatalf("serve.jobs_dead = %d, want 1", got)
	}
	if _, err := m1.Result(st.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("Result on a dead job = %v, want ErrNotFinished", err)
	}
	// Spec and dead marker stay; no stale checkpoint.
	for _, p := range []string{m1.specPath(st.ID), m1.deadPath(st.ID)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("dead job lost its spool record %s: %v", p, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart without fault injection: the job must come back dead with
	// its attempt count, not silently re-run.
	m2 := newTestManager(t, Options{SpoolDir: spool})
	got, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDead || got.Attempts != 3 || got.Error == "" {
		t.Fatalf("recovered dead job: state %s, attempts %d, error %q", got.State, got.Attempts, got.Error)
	}
	// DELETE on a dead job clears every trace.
	if err := m2.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{m2.specPath(st.ID), m2.deadPath(st.ID)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("canceled dead job left %s behind", p)
		}
	}
}

// TestTornCheckpointDiscarded: a checkpoint torn by a crash mid-write
// is quarantined and the job re-runs from scratch — to the exact
// fault-free result — instead of wedging on the corrupt file.
func TestTornCheckpointDiscarded(t *testing.T) {
	spool := t.TempDir()
	spec := tinySpec(17).withDefaults()
	id := "j000001"
	if err := checkpoint.WriteJSON(spool+"/"+id+".job.json", spec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool+"/"+id+".ckpt.json", []byte(`{"v":1,"prey":[[0.2,`), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m := newTestManager(t, Options{SpoolDir: spool, Metrics: reg})
	done := waitState(t, m, id, StateDone)
	if done.Resumed {
		t.Fatal("job claims to have resumed from a torn checkpoint")
	}
	if got := reg.Counter("serve.checkpoints_discarded").Load(); got != 1 {
		t.Fatalf("serve.checkpoints_discarded = %d, want 1", got)
	}
	if _, err := os.Stat(spool + "/" + id + ".ckpt.json.corrupt"); err != nil {
		t.Fatalf("torn checkpoint not quarantined: %v", err)
	}
	rec, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, rec, reference(t, spec))
}

// TestTornSpecQuarantinedOnRecovery: one mangled spec must not hold the
// whole spool hostage — it is set aside, healthy neighbors recover, and
// fresh IDs stay clear of the quarantined one.
func TestTornSpecQuarantinedOnRecovery(t *testing.T) {
	spool := t.TempDir()
	if err := os.WriteFile(spool+"/j000007.job.json", []byte(`{"n":60,"m":5,"se`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := tinySpec(19).withDefaults()
	if err := checkpoint.WriteJSON(spool+"/j000002.job.json", good); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Options{SpoolDir: spool})
	if _, err := m.Get("j000007"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt job recovered: %v", err)
	}
	if _, err := os.Stat(spool + "/j000007.job.json.corrupt"); err != nil {
		t.Fatalf("corrupt spec not quarantined: %v", err)
	}
	waitState(t, m, "j000002", StateDone)
	// The corrupt entry still burned its ID.
	st, err := m.Submit(tinySpec(20))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000008" {
		t.Fatalf("fresh ID %s collides with the quarantined range", st.ID)
	}
}

// TestTornSubmitSurfacesError: a spool write that fails mid-Submit is
// reported to the caller and leaves no half-registered job behind.
func TestTornSubmitSurfacesError(t *testing.T) {
	inj := fault.New(1)
	inj.Site(fault.SiteSpoolWrite, fault.Rule{Every: 1, Limit: 1})
	m := newTestManager(t, Options{Fault: inj})
	_, err := m.Submit(tinySpec(23))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Submit over a torn spool write = %v, want the injected fault", err)
	}
	if got := m.List(); len(got) != 0 {
		t.Fatalf("failed submit left a registered job: %+v", got)
	}
	// The window is spent; the next submission goes through.
	st, err := m.Submit(tinySpec(23))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
}

// TestAttemptTimeoutDeadLetters: attempts bounded by AttemptTimeout are
// retried (unlike the spec deadline, which is a spent budget), and a
// job that can never beat the bound dies with its attempts counted.
func TestAttemptTimeoutDeadLetters(t *testing.T) {
	m := newTestManager(t, Options{
		CheckpointEvery: -1, // no checkpoints: each attempt restarts from scratch
		MaxAttempts:     2,
		RetryBackoff:    time.Millisecond,
		AttemptTimeout:  20 * time.Millisecond,
	})
	st, err := m.Submit(longSpec(25))
	if err != nil {
		t.Fatal(err)
	}
	dead := waitState(t, m, st.ID, StateDead)
	if dead.Attempts != 2 {
		t.Fatalf("dead job reports %d attempts, want 2", dead.Attempts)
	}
	if !strings.Contains(dead.Error, "attempt") {
		t.Fatalf("error %q does not name the attempt timeout", dead.Error)
	}
}

// TestCancelDuringBackoff: a job parked between attempts is still
// cancelable — the backoff wait listens on the same cancel cause as the
// engine loop.
func TestCancelDuringBackoff(t *testing.T) {
	inj := fault.New(1)
	inj.Site(fault.SiteLPSolve, fault.Rule{Every: 1})
	m := newTestManager(t, Options{
		MaxAttempts:  3,
		RetryBackoff: time.Hour, // parked until canceled
		Fault:        inj,
	})
	st, err := m.Submit(tinySpec(29))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first attempt to fail", func() bool {
		got, gerr := m.Get(st.ID)
		return gerr == nil && got.Attempts >= 1
	})
	if err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateCanceled)
}

// TestSubmitCloseRaceStatusCodes pins the API's backpressure contract
// while Close races Submit: every rejection is typed — queue-full maps
// to 429, draining/closed to 503 — and no race window yields a panic or
// an untyped error.
func TestSubmitCloseRaceStatusCodes(t *testing.T) {
	for round := 0; round < 8; round++ {
		m, err := NewManager(Options{SpoolDir: t.TempDir(), Workers: 1, QueueDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					_, err := m.Submit(longSpec(uint64(200 + c*10 + i)))
					switch {
					case err == nil:
					case errors.Is(err, ErrQueueFull):
						if code := submitCode(err); code != http.StatusTooManyRequests {
							t.Errorf("queue-full mapped to %d, want 429", code)
						}
					case errors.Is(err, ErrClosed):
						if code := submitCode(err); code != http.StatusServiceUnavailable {
							t.Errorf("closed mapped to %d, want 503", code)
						}
					default:
						t.Errorf("untyped submit error during close race: %v", err)
					}
				}
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := m.Close(ctx); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		// After the dust settles the manager is closed: the mapping is
		// exactly 503, deterministically.
		if _, err := m.Submit(tinySpec(1)); !errors.Is(err, ErrClosed) || submitCode(err) != http.StatusServiceUnavailable {
			t.Fatalf("post-close submit: err %v, code %d", err, submitCode(err))
		}
	}
}
