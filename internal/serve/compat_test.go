package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// surrogateSpoolSpec is tinySpec(11) as a manager that still offered
// surrogate-assisted LP skipping spooled it, with the skipping knobs
// set.
const surrogateSpoolSpec = `{
  "n": 60,
  "m": 5,
  "instance": 3,
  "customers": 1,
  "seed": 11,
  "pop": 16,
  "ul_evals": 160,
  "ll_evals": 480,
  "prey_sample": 2,
  "workers": 1,
  "surrogate": true,
  "surrogate_topk": 4
}
`

// TestSpooledSurrogateSpecRecovers: a spool left behind with the retired
// surrogate knobs in a job spec must still be recovered by a restarted
// manager, which runs the job on the exact path to a result
// bit-identical to the in-process reference. New submissions carrying
// the knobs are refused by the API's strict decoding.
func TestSpooledSurrogateSpecRecovers(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j000001.job.json"), []byte(surrogateSpoolSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Options{SpoolDir: dir})
	waitState(t, m, "j000001", StateDone)
	rec, err := m.Result("j000001")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, rec, reference(t, tinySpec(11)))

	req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewBufferString(surrogateSpoolSpec))
	rr := httptest.NewRecorder()
	APIHandler(m).ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("submission with surrogate knobs: got %d, want 400", rr.Code)
	}
}
