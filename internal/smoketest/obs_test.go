//go:build smoke

package smoketest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"carbon/internal/serve"
	"carbon/internal/slo"
	"carbon/internal/telemetry"
)

// TestObs is the observability-plane gate (`make obs-smoke`): three
// carbond workers plus a carbonfleet router, one worker SIGKILLed
// mid-run.
//
//   - Streaming is free: every job runs with an SSE subscriber and must
//     finish bit-identical to its in-process reference (zero algorithm
//     RNG consumed); an undisturbed worker hosting one streamed job ran
//     exactly the reference's bcpop.lp_solves (no extra LP solves).
//   - SSE resume across failover: the victim's stream is read partway
//     and dropped; after the failover a Last-Event-ID reconnect must
//     replay exactly the missed tail — every generation once, no
//     duplicates, no holes, one terminal state.
//   - Federation conserves sums: the router's /metrics/prometheus
//     counter totals equal the sum of the survivors' own endpoints.
//   - An SLO rule on unfinished routes fires while jobs run and clears
//     on /v1/fleet/alerts once they finish.
//   - carbontop -once renders the post-mortem fleet, dead worker and all.
func TestObs(t *testing.T) {
	work := t.TempDir()
	refVictim, _ := Reference(t, victimSpec(21))
	refA, lpA := Reference(t, smokeSpec(22))
	refB, _ := Reference(t, smokeSpec(23))

	// The rule fires while any route is unfinished and clears when all
	// jobs land — a deterministic fire-and-clear cycle for the gate.
	rules := filepath.Join(work, "slo.rules")
	if err := os.WriteFile(rules, []byte("active carbonfleet_cluster_routes_unfinished value > 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	router, workers := startFleet(t, work, "-slo", rules)

	vic := router.Submit(victimSpec(21), "", "")
	jobA := router.Submit(smokeSpec(22), "", "")
	jobB := router.Submit(smokeSpec(23), "", "")
	if used := map[string]bool{vic.Worker: true, jobA.Worker: true, jobB.Worker: true}; len(used) != 3 {
		t.Fatalf("3 submissions landed on %d workers, want all 3", len(used))
	}

	// Attach a draining SSE subscriber to every job — the bit-identity
	// checks below then prove streaming perturbs nothing.
	doneA := drainStream(t, router, jobA.ID)
	doneB := drainStream(t, router, jobB.ID)

	// Read the victim's stream partway, then drop the connection: the
	// Last-Event-ID resume after failover must replay exactly the rest.
	var lastID uint64
	got := 0
	head := scanFrames(openStream(t, router, vic.ID, 0), func(f frame) bool {
		if f.id > 0 {
			lastID = f.id
			got++
		}
		return got < 10 && f.event != "eof"
	})
	if got < 10 {
		t.Fatalf("victim stream ended after %d frames, wanted %d before dropping", got, 10)
	}

	waitAlert(t, router, "active", true)

	victim := failOver(t, work, router, workers, vic, refVictim)
	router.WaitState(jobA.ID, serve.StateDone)
	router.WaitState(jobB.ID, serve.StateDone)
	Compare(t, "jobA (streamed)", router.Result(jobA.ID), refA)
	Compare(t, "jobB (streamed)", router.Result(jobB.ID), refB)

	// Resume the victim stream via Last-Event-ID across the failover.
	tail := scanFrames(openStream(t, router, vic.ID, lastID), func(f frame) bool { return f.event != "eof" })
	checkStitched(t, append(head, tail...), vic.ID, lastID, refVictim.Gens)

	// Drain the other two streams (they end with the jobs).
	for _, done := range []chan struct{}{doneA, doneB} {
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("a streamed job's SSE never reached eof")
		}
	}

	waitAlert(t, router, "active", false) // all routes done: alert cleared
	time.Sleep(400 * time.Millisecond)    // two probe rounds: the federated cache settles
	survivors := slices.DeleteFunc(slices.Clone(workers), func(w *Proc) bool { return w == victim })
	checkConservation(t, router, survivors)

	// No extra LP solves: jobA's worker hosted exactly that one streamed
	// job, so its counter must equal the reference run's.
	wA := workerAt(t, workers, jobA.Worker)
	gotLP, ok := famSum(scrape(t, wA), "carbond_bcpop_lp_solves")
	if !ok {
		t.Fatalf("worker %s has no family %s", wA, "carbond_bcpop_lp_solves")
	}
	if gotLP != float64(lpA) {
		t.Fatalf("worker %s ran %v LP solves for the streamed job, reference ran %d — streaming is not free",
			wA, gotLP, lpA)
	}

	out, err := exec.Command(carbontop, "-addr", router.URL(), "-once").CombinedOutput()
	if err != nil {
		t.Fatalf("carbontop -once: %v\n%s", err, out)
	}
	for _, want := range []string{vic.ID, "DEAD", "ALERTS"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("carbontop -once output lacks %q:\n%s", want, out)
		}
	}

	// Shut down what is still running; the victim is already dead.
	for _, p := range append([]*Proc{router}, survivors...) {
		p.Term()
	}
}

// frame is one server-sent event.
type frame struct {
	id    uint64
	event string
	data  string
}

// scanFrames reads SSE frames from r, invoking fn per frame; it stops
// when fn returns false or the stream ends, and returns the frames seen.
func scanFrames(r *http.Response, fn func(frame) bool) []frame {
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []frame
	var cur frame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
				if !fn(cur) {
					return out
				}
			}
			cur = frame{}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return out
}

// openStream opens job id's event stream, resuming after event id
// after when it is non-zero.
func openStream(t *testing.T, router *Proc, id string, after uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, router.URL()+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(after))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("events %s: %v", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events %s: HTTP %d", id, resp.StatusCode)
	}
	return resp
}

// drainStream reads a job's stream in the background; the returned
// channel closes when the eof frame arrives or the stream breaks.
func drainStream(t *testing.T, router *Proc, id string) chan struct{} {
	done := make(chan struct{})
	resp := openStream(t, router, id, 0)
	go func() {
		defer close(done)
		scanFrames(resp, func(f frame) bool { return f.event != "eof" })
	}()
	return done
}

// checkStitched asserts head+tail form one seamless stream: ids
// strictly ascending and contiguous at the splice, generations exactly
// 1..wantGens each once, a terminal final state, eof last.
func checkStitched(t *testing.T, frames []frame, fleetID string, spliceAt uint64, wantGens int) {
	if len(frames) == 0 || frames[len(frames)-1].event != "eof" {
		t.Fatalf("stitched stream does not end with eof")
	}
	var lastID uint64
	lastGen, gens := 0, 0
	var lastState serve.State
	spliced := false
	for _, f := range frames[:len(frames)-1] {
		if f.event == "dropped" || f.id == 0 {
			t.Fatalf("unexpected gap frame %+v — ring evicted events mid-gate", f)
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("event %d: %v", f.id, err)
		}
		if ev.Job != fleetID {
			t.Fatalf("event names job %q, want %q", ev.Job, fleetID)
		}
		if f.id != lastID+1 {
			t.Fatalf("ids not contiguous: %d after %d (splice at %d)", f.id, lastID, spliceAt)
		}
		if f.id == spliceAt+1 {
			spliced = true
		}
		lastID = f.id
		switch ev.Type {
		case serve.EventGen:
			if ev.Gen == nil || ev.Gen.Gen != lastGen+1 {
				t.Fatalf("generation sequence broken at %+v after gen %d", ev.Gen, lastGen)
			}
			lastGen = ev.Gen.Gen
			gens++
		case serve.EventState:
			lastState = ev.State
		}
	}
	if !spliced {
		t.Fatalf("resume never crossed the splice point %d", spliceAt)
	}
	if gens != wantGens {
		t.Fatalf("stitched stream carries %d generations, reference ran %d", gens, wantGens)
	}
	if lastState != serve.StateDone {
		t.Fatalf("stitched stream's final state %q, want done", lastState)
	}
}

// scrape parses p's /metrics/prometheus.
func scrape(t *testing.T, p *Proc) []telemetry.Family {
	t.Helper()
	resp, err := http.Get(p.URL() + "/metrics/prometheus")
	if err != nil {
		t.Fatalf("scrape %s: %v", p, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: HTTP %d", p, resp.StatusCode)
	}
	fams, err := telemetry.ParseFamilies(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", p, err)
	}
	return fams
}

// famSum totals every series of family name.
func famSum(fams []telemetry.Family, name string) (float64, bool) {
	f := telemetry.FindFamily(fams, name)
	if f == nil {
		return 0, false
	}
	var sum float64
	for _, s := range f.Series {
		sum += s.Value
	}
	return sum, true
}

// checkConservation scrapes the survivors directly and asserts every
// carbond counter family on the router's federated endpoint totals
// exactly their sum — the dead worker contributes nothing, survivors
// contribute everything.
func checkConservation(t *testing.T, router *Proc, survivors []*Proc) {
	fleet := scrape(t, router)
	var scraped [][]telemetry.Family
	for _, w := range survivors {
		scraped = append(scraped, scrape(t, w))
	}
	checked := 0
	for _, f := range fleet {
		if f.Kind != "counter" || !strings.HasPrefix(f.Name, "carbond") {
			continue
		}
		fleetTotal, _ := famSum(fleet, f.Name)
		var workerTotal float64
		for _, fams := range scraped {
			v, _ := famSum(fams, f.Name)
			workerTotal += v
		}
		if fleetTotal != workerTotal {
			t.Fatalf("federated %s = %v, survivors sum to %v — conservation violated", f.Name, fleetTotal, workerTotal)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d carbond counter families federated — scrape too thin to trust", checked)
	}
}

// waitAlert waits until rule is firing (or not) on /v1/fleet/alerts.
func waitAlert(t *testing.T, router *Proc, rule string, firing bool) {
	t.Helper()
	reached := Poll(60*time.Second, func() bool {
		var alerts []slo.Alert
		if router.Get("/v1/fleet/alerts", &alerts) != http.StatusOK {
			return false
		}
		got := false
		for _, a := range alerts {
			if a.Rule == rule && a.State == slo.StateFiring {
				got = true
			}
		}
		return got == firing
	})
	if !reached {
		t.Fatalf("alert %q never reached firing=%v", rule, firing)
	}
}
