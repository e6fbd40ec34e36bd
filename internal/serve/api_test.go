package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

func apiDo(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

func TestAPIEndToEnd(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})
	h := APIHandler(m)

	// Bad JSON and bad specs are 400s.
	req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewBufferString("{nope"))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: got %d", rr.Code)
	}
	bad := tinySpec(1)
	bad.N = -1
	if rr, _ := apiDo(t, h, "POST", "/v1/jobs", bad); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad spec: got %d", rr.Code)
	}

	// Submit, then follow the job through the API only.
	rr, body := apiDo(t, h, "POST", "/v1/jobs", tinySpec(41))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: got %d: %s", rr.Code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("bad created status: %+v", st)
	}

	if rr, _ := apiDo(t, h, "GET", "/v1/jobs/"+st.ID+"/result", nil); rr.Code != http.StatusConflict &&
		rr.Code != http.StatusOK {
		t.Fatalf("early result: got %d", rr.Code)
	}

	waitFor(t, "job to finish over HTTP", func() bool {
		rr, body := apiDo(t, h, "GET", "/v1/jobs/"+st.ID, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("status: got %d", rr.Code)
		}
		var cur Status
		if err := json.Unmarshal(body, &cur); err != nil {
			t.Fatal(err)
		}
		return cur.State == StateDone
	})

	rr, body = apiDo(t, h, "GET", "/v1/jobs/"+st.ID+"/result", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("result: got %d: %s", rr.Code, body)
	}
	var rec ResultRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != st.ID || rec.Gens == 0 || rec.BestTree == "" {
		t.Fatalf("hollow result: %+v", rec)
	}
	assertMatchesReference(t, &rec, reference(t, tinySpec(41)))

	if rr, _ := apiDo(t, h, "GET", "/v1/jobs", nil); rr.Code != http.StatusOK {
		t.Fatalf("list: got %d", rr.Code)
	}
	if rr, _ := apiDo(t, h, "DELETE", "/v1/jobs/"+st.ID, nil); rr.Code != http.StatusOK {
		t.Fatalf("delete: got %d", rr.Code)
	}
	if rr, _ := apiDo(t, h, "GET", "/v1/jobs/"+st.ID, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("deleted job still visible: got %d", rr.Code)
	}
	if rr, _ := apiDo(t, h, "DELETE", "/v1/jobs/"+st.ID, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("double delete: got %d", rr.Code)
	}
}

func TestAPIQueueFullIs429(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 1})
	h := APIHandler(m)
	var ids []string
	got429 := false
	for i := 0; i < 6; i++ {
		rr, body := apiDo(t, h, "POST", "/v1/jobs", longSpec(uint64(50+i)))
		switch rr.Code {
		case http.StatusCreated:
			var st Status
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		case http.StatusTooManyRequests:
			got429 = true
			// The 429 must tell the client when to retry and how loaded
			// the queue is — the router's admission layer consumes both.
			if rr.Header().Get("Retry-After") == "" {
				t.Fatal("429 without a Retry-After header")
			}
			var payload struct {
				Error      string `json:"error"`
				QueueDepth *int   `json:"queue_depth"`
				QueueCap   int    `json:"queue_cap"`
			}
			if err := json.Unmarshal(body, &payload); err != nil {
				t.Fatal(err)
			}
			if payload.Error == "" || payload.QueueDepth == nil || payload.QueueCap != 1 {
				t.Fatalf("hollow 429 payload: %s", body)
			}
		default:
			t.Fatalf("submit %d: got %d: %s", i, rr.Code, body)
		}
	}
	if !got429 {
		t.Fatal("never saw 429 with a single worker and QueueDepth 1")
	}
	for _, id := range ids {
		if rr, _ := apiDo(t, h, "DELETE", "/v1/jobs/"+id, nil); rr.Code != http.StatusOK {
			t.Fatalf("cleanup cancel %s failed", id)
		}
	}
}

// TestAPIClusterEndpoints drives the three routes the fleet router
// lives on: the health snapshot, the checkpoint fetch, and restore.
func TestAPIClusterEndpoints(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	h := APIHandler(m)

	rr, body := apiDo(t, h, "GET", "/v1/healthz", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: got %d", rr.Code)
	}
	var hl Health
	if err := json.Unmarshal(body, &hl); err != nil {
		t.Fatal(err)
	}
	if !hl.OK || hl.Workers != 1 {
		t.Fatalf("healthz payload %+v", hl)
	}

	// Restore with a seed checkpoint finishes bit-identical to an
	// uninterrupted run of the same spec.
	spec := tinySpec(61)
	want := reference(t, spec)
	ckpt := snapshotBytes(t, spec, 3)
	rr, body = apiDo(t, h, "POST", "/v1/jobs/restore", RestoreRequest{
		Spec: spec, CheckpointB64: base64.StdEncoding.EncodeToString(ckpt),
	})
	if rr.Code != http.StatusCreated {
		t.Fatalf("restore: got %d: %s", rr.Code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	rr, body = apiDo(t, h, "GET", "/v1/jobs/"+st.ID+"/result", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("restored result: got %d", rr.Code)
	}
	var rec ResultRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, &rec, want)

	// The finished job removed its checkpoint: the fetch is a 404.
	if rr, _ := apiDo(t, h, "GET", "/v1/jobs/"+st.ID+"/checkpoint", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("checkpoint of finished job: got %d", rr.Code)
	}
	// Plant one and it comes back verbatim.
	if err := os.WriteFile(m.ckptPath(st.ID), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	rr, body = apiDo(t, h, "GET", "/v1/jobs/"+st.ID+"/checkpoint", nil)
	if rr.Code != http.StatusOK || !bytes.Equal(body, ckpt) {
		t.Fatalf("checkpoint fetch: got %d, %d bytes (want %d)", rr.Code, len(body), len(ckpt))
	}

	// Bad base64 and garbage envelopes are 400s, not spooled jobs.
	if rr, _ := apiDo(t, h, "POST", "/v1/jobs/restore", RestoreRequest{
		Spec: spec, CheckpointB64: "%%%",
	}); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad base64: got %d", rr.Code)
	}
	if rr, _ := apiDo(t, h, "POST", "/v1/jobs/restore", RestoreRequest{
		Spec: spec, CheckpointB64: base64.StdEncoding.EncodeToString([]byte("junk")),
	}); rr.Code != http.StatusBadRequest {
		t.Fatalf("garbage envelope: got %d", rr.Code)
	}
}
