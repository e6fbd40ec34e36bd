package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"carbon/internal/serve"
)

// --- SSE proxy ---

type sseFrame struct {
	id    string
	event string
	data  string
}

func parseSSEBody(s string) []sseFrame {
	var out []sseFrame
	var cur sseFrame
	for _, line := range strings.Split(s, "\n") {
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return out
}

// checkStream asserts the fleet-surface invariants on a proxied
// stream: router-stamped ids strictly ascending, payloads carrying the
// fleet ID, generations strictly increasing with no duplicates, a
// terminal state, and the eof frame last. Returns the highest id and
// the number of gen events.
func checkStream(t *testing.T, frames []sseFrame, fleetID string) (lastID uint64, gens int) {
	t.Helper()
	if len(frames) == 0 {
		t.Fatal("empty stream")
	}
	if last := frames[len(frames)-1]; last.event != "eof" {
		t.Fatalf("stream did not end with eof: %+v", last)
	}
	lastGen := 0
	var lastState serve.State
	for _, f := range frames[:len(frames)-1] {
		if f.event == "dropped" {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %+v: %v", f, err)
		}
		if ev.Job != fleetID {
			t.Fatalf("event names job %q, want fleet ID %q", ev.Job, fleetID)
		}
		var id uint64
		if _, err := fmt.Sscanf(f.id, "%d", &id); err != nil {
			t.Fatalf("frame id %q: %v", f.id, err)
		}
		if id <= lastID {
			t.Fatalf("ids not ascending: %d after %d", id, lastID)
		}
		if id != ev.Seq {
			t.Fatalf("id line %d != payload seq %d", id, ev.Seq)
		}
		lastID = id
		switch ev.Type {
		case serve.EventGen:
			if ev.Gen == nil || ev.Gen.Gen <= lastGen {
				t.Fatalf("gen sequence broken at %+v after gen %d", ev.Gen, lastGen)
			}
			lastGen = ev.Gen.Gen
			gens++
		case serve.EventState:
			lastState = ev.State
		}
	}
	if !lastState.Terminal() {
		t.Fatalf("stream's final state %q is not terminal", lastState)
	}
	return lastID, gens
}

// TestFleetEventProxyStreamsAndResumes: the router proxies a job's SSE
// stream under its fleet ID with router-owned sequence numbers, and
// Last-Event-ID resumes replay only the tail.
func TestFleetEventProxyStreamsAndResumes(t *testing.T) {
	_, w1 := testWorker(t, serve.Options{Workers: 1})
	r := newTestRouter(t, Options{Workers: []string{w1.URL}})
	h := r.Handler()

	rr, body := do(t, h, "POST", "/v1/jobs", tinySpec(7), nil)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: got %d: %s", rr.Code, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, st.ID)

	rr, body = do(t, h, "GET", "/v1/jobs/"+st.ID+"/events", nil, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("events: got %d: %s", rr.Code, body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	frames := parseSSEBody(string(body))
	lastID, gens := checkStream(t, frames, st.ID)
	if gens == 0 {
		t.Fatal("no generation events streamed")
	}

	// Resume from the midpoint: exactly the tail replays, ending in eof.
	resumeAfter := lastID / 2
	rr, body = do(t, h, "GET", "/v1/jobs/"+st.ID+"/events", nil,
		map[string]string{"Last-Event-ID": fmt.Sprint(resumeAfter)})
	if rr.Code != http.StatusOK {
		t.Fatalf("resume: got %d", rr.Code)
	}
	tail := parseSSEBody(string(body))
	if last := tail[len(tail)-1]; last.event != "eof" {
		t.Fatalf("resumed stream did not end with eof: %+v", last)
	}
	var want, got int
	want = int(lastID - resumeAfter)
	for _, f := range tail {
		if f.id != "" {
			got++
		}
	}
	if got != want {
		t.Fatalf("resume replayed %d events, want %d", got, want)
	}

	rr, _ = do(t, h, "GET", "/v1/jobs/f999999/events", nil, nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown job events: got %d, want 404", rr.Code)
	}
}

// TestFleetEventStreamStitchesAcrossFailover: a client watching one
// fleet stream sees a seamless event sequence — generations strictly
// increasing, no duplicates from the post-failover replay, one
// terminal state — while the job is killed off one worker and restored
// on another. The run's result stays bit-identical to the reference.
func TestFleetEventStreamStitchesAcrossFailover(t *testing.T) {
	_, w1 := testWorker(t, serve.Options{Workers: 1, CheckpointEvery: 1})
	_, w2 := testWorker(t, serve.Options{Workers: 1, CheckpointEvery: 1})
	r := newTestRouter(t, Options{Workers: []string{w1.URL, w2.URL}, DeadAfter: 2})
	h := r.Handler()
	front := httptest.NewServer(h)
	t.Cleanup(front.Close)

	spec := longSpec(81)
	rr, body := do(t, h, "POST", "/v1/jobs", spec, nil)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: got %d: %s", rr.Code, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Attach the stream before the kill and read it live to completion.
	framesCh := make(chan []sseFrame, 1)
	errCh := make(chan error, 1)
	resp, err := http.Get(front.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer resp.Body.Close()
		var frames []sseFrame
		var cur sseFrame
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				frames = append(frames, cur)
				if cur.event == "eof" {
					framesCh <- frames
					return
				}
				cur = sseFrame{}
			case strings.HasPrefix(line, "id: "):
				cur.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			}
		}
		errCh <- fmt.Errorf("stream ended without eof: %v", sc.Err())
	}()

	waitFor(t, "checkpoint mirror", func() bool {
		r.Probe()
		_, err := os.Stat(r.mirrorPath(st.ID))
		return err == nil
	})
	w1.Close()
	r.Probe()
	r.Probe()
	rt, ok := r.lookup(st.ID)
	if !ok || rt.Worker != w2.URL {
		t.Fatalf("route did not fail over: %+v", rt)
	}
	waitDone(t, h, st.ID)
	assertRecordMatches(t, fetchResult(t, h, st.ID), reference(t, spec))

	var frames []sseFrame
	select {
	case frames = <-framesCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for the stream to complete")
	}
	lastID, gens := checkStream(t, frames, st.ID)

	// Seamless coverage: the stream carries every generation the final
	// result accounts for, exactly once (checkStream already proved
	// strict monotonicity, so count == max means no holes).
	rec := fetchResult(t, h, st.ID)
	if gens != rec.Gens {
		t.Fatalf("streamed %d generations across failover, result ran %d", gens, rec.Gens)
	}

	// Client-side resume still works after the re-home: the router ring
	// owns the numbering, so a late Last-Event-ID replays just the tail.
	rr, body = do(t, h, "GET", "/v1/jobs/"+st.ID+"/events", nil,
		map[string]string{"Last-Event-ID": fmt.Sprint(lastID - 3)})
	if rr.Code != http.StatusOK {
		t.Fatalf("post-failover resume: got %d", rr.Code)
	}
	tail := parseSSEBody(string(body))
	var replayed int
	for _, f := range tail {
		if f.id != "" {
			replayed++
		}
	}
	if replayed != 3 || tail[len(tail)-1].event != "eof" {
		t.Fatalf("post-failover resume replayed %d frames (want 3), tail %+v", replayed, tail[len(tail)-1])
	}
}

// TestRouterDeleteDropsEventStream: DELETE drops the router's stream
// for the job along with its route, and a client subscribed before the
// DELETE still sees its stream end with eof.
func TestRouterDeleteDropsEventStream(t *testing.T) {
	_, w1 := testWorker(t, serve.Options{Workers: 1})
	r := newTestRouter(t, Options{Workers: []string{w1.URL}})
	h := r.Handler()
	front := httptest.NewServer(h)
	t.Cleanup(front.Close)

	rr, body := do(t, h, "POST", "/v1/jobs", longSpec(91), nil)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: got %d: %s", rr.Code, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(front.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	firstFrame := make(chan struct{})
	sawEOF := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		first := true
		for sc.Scan() {
			line := sc.Text()
			if first && strings.HasPrefix(line, "data: ") {
				first = false
				close(firstFrame)
			}
			if line == "event: eof" {
				sawEOF <- true
				return
			}
		}
		sawEOF <- false
	}()
	select {
	case <-firstFrame:
	case <-time.After(60 * time.Second):
		t.Fatal("no frame before the DELETE")
	}

	if rr, _ := do(t, h, "DELETE", "/v1/jobs/"+st.ID, nil, nil); rr.Code != http.StatusOK {
		t.Fatalf("delete: got %d", rr.Code)
	}
	r.mu.Lock()
	_, held := r.streams[st.ID]
	r.mu.Unlock()
	if held {
		t.Fatal("router still holds the deleted job's event stream")
	}
	select {
	case ok := <-sawEOF:
		if !ok {
			t.Fatal("subscribed stream ended without eof")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("subscribed stream never ended after the DELETE")
	}
}
