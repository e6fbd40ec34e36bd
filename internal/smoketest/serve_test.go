//go:build smoke

package smoketest

import (
	"path/filepath"
	"testing"

	"carbon/internal/serve"
)

// TestServe is the crash-recovery gate for carbond (`make serve-smoke`).
// It drives the real binary through the two interruptions a production
// server meets:
//
//  1. SIGKILL mid-run: the process dies with no warning; on restart the
//     job must resume from its last spooled checkpoint and finish with
//     exactly the result of an uninterrupted run.
//  2. SIGTERM mid-run: graceful drain; the server must checkpoint the
//     running job and exit 0, and the next start must resume and
//     finish, again bit-identically.
func TestServe(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "spool")
	refA, _ := Reference(t, smokeSpec(7))
	refB, _ := Reference(t, smokeSpec(8))

	// Scenario 1: SIGKILL at >=4 generations, restart, resume.
	srv := startCarbond(t, spool)
	idA := srv.Submit(smokeSpec(7), "", "").ID
	srv.WaitGens(idA, 4)
	srv.Kill()
	WaitFile(t, filepath.Join(spool, idA+".job.json"), "spool file")
	WaitFile(t, filepath.Join(spool, idA+".ckpt.json"), "spool file")
	srv = srv.Restart()
	if st := srv.WaitState(idA, serve.StateDone); !st.Resumed {
		t.Fatalf("job %s finished without resuming from the checkpoint", idA)
	}
	Compare(t, "crash-resumed", srv.Result(idA), refA)

	// Scenario 2: SIGTERM drain at >=2 generations, restart, resume.
	idB := srv.Submit(smokeSpec(8), "", "").ID
	srv.WaitGens(idB, 2)
	srv.Term()
	WaitFile(t, filepath.Join(spool, idB+".job.json"), "spool file")
	WaitFile(t, filepath.Join(spool, idB+".ckpt.json"), "spool file")
	srv = srv.Restart()
	if st := srv.WaitState(idB, serve.StateDone); !st.Resumed {
		t.Fatalf("drained job %s did not resume from its checkpoint", idB)
	}
	Compare(t, "drain-resumed", srv.Result(idB), refB)

	// Idle shutdown must also be clean.
	srv.Term()
}
