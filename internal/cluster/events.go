package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"carbon/internal/serve"
)

// eventRingSize bounds each proxied job's router-side event ring —
// same drop-oldest semantics as the worker rings (serve.EventRing).
const eventRingSize = 256

// fleetStream is the router's stream state for one fleet job: a ring
// the proxy handler serves clients from, filled by a pump goroutine
// that follows the job across workers. The ring stamps the router's
// own sequence numbers, so a client's Last-Event-ID keeps meaning
// "events I have seen on THIS connection's surface" even after the job
// re-homes and the worker-side numbering restarts from 1.
type fleetStream struct {
	ring *serve.EventRing
}

// pumpState is what survives across upstream reconnects: the highest
// generation forwarded (failover replays recompute — deterministically
// identical — generations the mirror checkpoint predates, and a fresh
// subscription replays the whole worker ring) and the forwarded
// lifecycle history, used to suppress the queued/running transitions a
// restored incarnation re-announces. Fleet clients see one seamless
// lifecycle; the Failovers counter on the status endpoint is where
// re-homing is accounted, not the stream.
type pumpState struct {
	lastGen   int
	stateLog  []string // forwarded state transitions, in order
	replayIdx int      // prefix of stateLog matched so far this connection
}

func stateKey(ev serve.Event) string {
	return fmt.Sprintf("%s|%d|%s", ev.State, ev.Attempts, ev.Error)
}

// ServeJobEvents proxies GET /v1/jobs/{id}/events under fleet IDs: the
// same SSE frames a worker serves, with router-owned sequence numbers
// and the fleet ID in the payload. Resume via Last-Event-ID works
// across worker failover because the ring outlives the incarnations.
func (r *Router) ServeJobEvents(w http.ResponseWriter, req *http.Request, fleetID string) {
	fs, ok := r.eventStream(fleetID)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("cluster: no job %s", fleetID))
		return
	}
	sub := fs.ring.Subscribe(serve.ParseAfter(req))
	defer sub.Close()
	serve.StreamSSE(w, req, sub, fleetID)
}

// eventStream returns the job's stream, starting its pump on first
// use. Streams are created lazily — a fleet where nobody watches pays
// nothing — and stay replayable after the job finishes, until its
// DELETE drops them with the route.
func (r *Router) eventStream(fleetID string) (*fleetStream, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.routes[fleetID]; !ok {
		return nil, false
	}
	if fs, ok := r.streams[fleetID]; ok {
		return fs, true
	}
	fs := &fleetStream{ring: serve.NewEventRing(eventRingSize, r.metEvtDrop)}
	r.streams[fleetID] = fs
	go r.pumpEvents(fleetID, fs)
	return fs, true
}

// pumpEvents follows one fleet job across workers: subscribe to the
// current host's event stream, forward into the router ring, and on
// disconnect re-resolve the route — which failover may have pointed at
// a different worker by then — and subscribe again. Exits (closing the
// ring, so clients get `event: eof`) when the upstream stream ends
// terminally, the route disappears (cancel), or the router closes.
func (r *Router) pumpEvents(fleetID string, fs *fleetStream) {
	defer fs.ring.Close()
	st := &pumpState{}
	retry := r.opts.ProbeEvery / 4
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	if retry > 500*time.Millisecond {
		retry = 500 * time.Millisecond
	}
	first := true
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		r.mu.Lock()
		rt, ok := r.routes[fleetID]
		var workerURL, jobID string
		var done bool
		if ok {
			workerURL, jobID, done = rt.Worker, rt.JobID, rt.Done
		}
		r.mu.Unlock()
		if !ok {
			return // route dropped (canceled): complete the stream
		}
		if !first {
			r.metReconnect.Inc()
		}
		first = false
		if r.streamWorker(workerURL, jobID, fleetID, fs, st) {
			return // upstream said eof: job terminal
		}
		if done {
			// The route was marked terminal by a status poll but the
			// upstream connection died before its eof frame arrived (or
			// the worker is unreachable). The final state was forwarded
			// if we ever saw it; either way the stream is over.
			return
		}
		select {
		case <-r.stop:
			return
		case <-time.After(retry):
		}
	}
}

// streamWorker holds one SSE connection to a worker and forwards its
// frames. Returns true when the stream ended with the job terminal
// (`event: eof`), false on any disconnect worth retrying.
func (r *Router) streamWorker(workerURL, jobID, fleetID string, fs *fleetStream, st *pumpState) bool {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-r.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}

	// Each (re)connect replays the worker ring from its oldest retained
	// event; the prefix match below skips what was already forwarded.
	st.replayIdx = 0

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if r.forwardFrame(event, data, fleetID, fs, st) {
				return true
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
			// id: lines carry the worker's per-incarnation seq — ignored;
			// the router ring stamps its own on Publish.
		}
	}
	return false
}

// forwardFrame filters one upstream frame into the ring. Returns true
// on the terminal eof frame.
func (r *Router) forwardFrame(event, data, fleetID string, fs *fleetStream, st *pumpState) bool {
	switch event {
	case "eof":
		return true
	case "dropped":
		// A worker-side eviction gap: there is nothing to replay, and
		// the gen numbers in the payloads already make the hole visible
		// to consumers — forwarding a synthetic frame would double-count
		// it once this ring evicts too.
		return false
	}
	var ev serve.Event
	if json.Unmarshal([]byte(data), &ev) != nil {
		return false
	}
	switch ev.Type {
	case serve.EventGen:
		if ev.Gen == nil || ev.Gen.Gen <= st.lastGen {
			return false // replay overlap (reconnect or post-failover recompute)
		}
		st.lastGen = ev.Gen.Gen
	case serve.EventState:
		key := stateKey(ev)
		if st.replayIdx < len(st.stateLog) && st.stateLog[st.replayIdx] == key {
			st.replayIdx++ // already forwarded this transition
			return false
		}
		st.stateLog = append(st.stateLog, key)
		st.replayIdx = len(st.stateLog)
	default:
		return false
	}
	ev.Job = fleetID
	ev.Seq = 0 // the ring re-stamps with the router's own sequence
	fs.ring.Publish(ev)
	return false
}
