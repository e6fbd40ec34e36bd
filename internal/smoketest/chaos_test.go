//go:build smoke

package smoketest

import (
	"net/http"
	"path/filepath"
	"testing"

	"carbon/internal/serve"
)

// chaosFaults is the phase-1 injection spec: a finite LP outage opening
// mid-run (limit 6, so retries can outlast it), two torn checkpoint
// writes and one torn spool write. Finite windows are the point — the
// server must absorb them, not merely report them.
const chaosFaults = "lp.solve:every=1,after=30,limit=6;" +
	"checkpoint.write:every=4,limit=2;" +
	"spool.write:every=3,limit=1"

// TestChaos is the fault-injection gate for carbond (`make
// chaos-smoke`): injected LP-solve failures, torn checkpoint and spool
// writes, and a SIGKILL on top. The server must still deliver:
//
//  1. zero accepted jobs lost: every job is listed and reaches a
//     terminal state across restarts;
//  2. bit-identical survivors: retries resume from the last clean
//     checkpoint, so faults cost time, never bits;
//  3. honest dead-letters: under a permanent outage a job dies after
//     exactly -max-attempts attempts, and a restarted server still
//     knows it is dead instead of re-running it.
func TestChaos(t *testing.T) {
	work := t.TempDir()
	refA, _ := Reference(t, smokeSpec(7))
	refB, _ := Reference(t, smokeSpec(8))

	// Phase 1: finite faults + SIGKILL; both jobs must survive.
	spool := filepath.Join(work, "spool")
	srv := startCarbond(t, spool, "-fault", chaosFaults, "-fault-seed", "1",
		"-max-attempts", "10", "-retry-backoff", "25ms")
	idA := srv.Submit(smokeSpec(7), "", "").ID
	idB := srv.Submit(smokeSpec(8), "", "").ID
	srv.WaitGens(idA, 4)
	srv.Kill()
	WaitFile(t, filepath.Join(spool, idA+".job.json"), "spool file")
	WaitFile(t, filepath.Join(spool, idB+".job.json"), "spool file")

	srv = srv.Restart() // into the same fault schedule
	var listed []serve.Status
	srv.Get("/v1/jobs", &listed)
	got := map[string]bool{}
	for _, st := range listed {
		got[st.ID] = true
	}
	if !got[idA] || !got[idB] {
		t.Fatalf("accepted jobs lost across the crash: have %v, want %s and %s", got, idA, idB)
	}
	for _, id := range []string{idA, idB} {
		if st := srv.WaitState(id, serve.StateDone); st.Attempts < 1 {
			t.Fatalf("job %s reports %d attempts — retry accounting lost", st.ID, st.Attempts)
		}
	}
	Compare(t, "chaos-survivor A", srv.Result(idA), refA)
	Compare(t, "chaos-survivor B", srv.Result(idB), refB)
	srv.Term()

	// Phase 2: permanent LP outage; dead-letter after exactly 3 attempts.
	spool2 := filepath.Join(work, "spool2")
	srv = startCarbond(t, spool2, "-fault", "lp.solve:every=1", "-max-attempts", "3", "-retry-backoff", "10ms")
	tiny := smokeSpec(9) // finishes in well under a second; it never completes anyway
	tiny.ULEvals, tiny.LLEvals = 160, 480
	idC := srv.Submit(tiny, "", "").ID
	stC := srv.WaitState(idC, serve.StateDead)
	if stC.Attempts != 3 {
		t.Fatalf("dead job %s reports %d attempts, want 3", idC, stC.Attempts)
	}
	if stC.Error == "" {
		t.Fatalf("dead job %s carries no error", idC)
	}
	if code := srv.ResultCode(idC); code != http.StatusConflict {
		t.Fatalf("result of a dead job: HTTP %d, want 409", code)
	}
	srv.Term()

	// Restarted fault-free, the dead job must stay dead.
	srv = startCarbond(t, spool2)
	var rec serve.Status
	if code := srv.Get("/v1/jobs/"+idC, &rec); code != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", idC, code)
	}
	if rec.State != serve.StateDead || rec.Attempts != 3 || rec.Error == "" {
		t.Fatalf("recovered dead job: state %s, attempts %d, error %q — want dead/3/non-empty",
			rec.State, rec.Attempts, rec.Error)
	}
	srv.Term()
}
