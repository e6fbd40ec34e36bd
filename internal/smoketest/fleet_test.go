//go:build smoke

package smoketest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"carbon/internal/cluster"
	"carbon/internal/cluster/netmigrate"
	"carbon/internal/core"
	"carbon/internal/serve"
	"carbon/internal/span"
	"carbon/internal/tracestat"
)

// The caller-side trace context submitted with the fleet gate's victim
// job. Everything the fleet does for that job — routing, both worker
// incarnations, the failover itself — must join this one trace.
const (
	fleetTraceID = "0af7651916cd43dd8448eb211c80319c"
	fleetTP      = "00-" + fleetTraceID + "-b7ad6b7169203331-01"
)

func islandSpec() serve.JobSpec {
	return serve.JobSpec{
		N: 60, M: 5, Instance: 3,
		Seed: 7, Pop: 10, ULEvals: 800, LLEvals: 1600,
		PreySample: 2, Workers: 1,
	}
}

// TestFleet is the carbonfleet router gate (`make fleet-smoke`): three
// carbond workers plus a router, separate processes on loopback HTTP.
//
//   - Sharding: four jobs round-robin over all three workers, each
//     bit-identical to its in-process reference.
//   - Admission: an over-quota tenant gets 429 with a Retry-After hint;
//     its earlier in-quota job runs normally.
//   - Failover: SIGKILLing the worker hosting a running job loses
//     nothing; the job resumes from its mirrored checkpoint on a
//     survivor and finishes bit-identical.
//   - Revival: the killed worker restarts on its old address and spool,
//     and the router sweeps its stale copy of the re-homed job.
//   - Networked islands: ring and broadcast runs spread over the fleet
//     equal in-process RunIslands bit for bit.
//   - Tracing: the failed-over job's trace spans the router and both
//     hosting workers (>= 3 span files, one trace ID), and the union of
//     every span file in the fleet assembles with zero orphans.
func TestFleet(t *testing.T) {
	work := t.TempDir()
	refVictim, _ := Reference(t, victimSpec(14))
	refA, _ := Reference(t, smokeSpec(11))
	refB, _ := Reference(t, smokeSpec(12))
	refC, _ := Reference(t, smokeSpec(13))

	router, workers := startFleet(t, work, "-quota", "metered=0.0001")

	// Sharding + admission.
	vic := router.Submit(victimSpec(14), "smoke", fleetTP)
	jobA := router.Submit(smokeSpec(11), "", "")
	jobB := router.Submit(smokeSpec(12), "", "")
	jobC := router.Submit(smokeSpec(13), "metered", "")
	used := map[string]bool{vic.Worker: true, jobA.Worker: true, jobB.Worker: true, jobC.Worker: true}
	if len(used) != 3 {
		t.Fatalf("4 submissions landed on %d workers, want all 3 (round-robin)", len(used))
	}
	// The metered tenant's bucket (burst 1, refill ~never) is now empty:
	// the next submission must bounce with a Retry-After hint.
	resp := router.Post(smokeSpec(13), "metered", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: HTTP %d, want 429", resp.StatusCode)
	}
	if after, _ := strconv.Atoi(resp.Header.Get("Retry-After")); after < 1 {
		t.Fatalf("429 carried Retry-After %q, want >= 1s", resp.Header.Get("Retry-After"))
	}

	// Failover: SIGKILL the worker hosting the victim.
	oldJobID := routeOf(t, router, vic.ID).JobID
	victim := failOver(t, work, router, workers, vic, refVictim)
	if w := routeOf(t, router, vic.ID).Worker; w == vic.Worker {
		t.Fatalf("job %s still routed to the dead worker %s", vic.ID, w)
	}

	// The rest of the fleet's jobs: zero loss.
	for _, j := range []struct {
		id  string
		ref *core.Result
	}{{jobA.ID, refA}, {jobB.ID, refB}, {jobC.ID, refC}} {
		router.WaitState(j.id, serve.StateDone)
		Compare(t, j.id, router.Result(j.id), j.ref)
	}

	// Revival: restart the dead worker on its old address and spool; its
	// stale copy of the re-homed job must be canceled or deleted.
	revived := victim.Restart()
	workers[slices.Index(workers, victim)] = revived
	waitHealth(t, router, "revival", func(h cluster.FleetHealth) bool { return h.Healthy == 3 })
	swept := Poll(30*time.Second, func() bool {
		var st serve.Status
		code := revived.Get("/v1/jobs/"+oldJobID, &st)
		return code == http.StatusNotFound || (code == http.StatusOK && st.State == serve.StateCanceled)
	})
	if !swept {
		t.Fatalf("revived worker still runs the stale copy of %s (never swept)", oldJobID)
	}

	// Networked islands across the whole fleet.
	for _, topo := range []core.Topology{core.TopologyRing, core.TopologyBroadcast} {
		checkIslands(t, router, topo)
	}

	// Orderly shutdown before reading span files.
	for _, p := range append([]*Proc{router}, workers...) {
		p.Term()
	}
	checkFleetSpans(t, work)
}

// routeEntry is the part of a router route-table entry the gate reads.
type routeEntry struct {
	FleetID string `json:"fleet_id"`
	Worker  string `json:"worker"`
	JobID   string `json:"job_id"`
}

// routeOf is the router's route-table entry for a fleet job.
func routeOf(t *testing.T, router *Proc, fleetID string) routeEntry {
	t.Helper()
	var routes []routeEntry
	router.Get("/v1/jobs", &routes)
	for _, rt := range routes {
		if rt.FleetID == fleetID {
			return rt
		}
	}
	t.Fatalf("router has no route for %s", fleetID)
	return routeEntry{}
}

// checkIslands runs one island-model job through the router and
// asserts the merged record equals in-process RunIslands bit for bit.
func checkIslands(t *testing.T, router *Proc, topo core.Topology) {
	t.Helper()
	spec := islandSpec().Normalize()
	mk, err := spec.Market()
	if err != nil {
		t.Fatalf("islands market: %v", err)
	}
	ref, err := core.RunIslands(mk, spec.Config(),
		core.IslandConfig{Islands: 4, MigrateEvery: 3, Migrants: 1, Topology: topo})
	if err != nil {
		t.Fatalf("reference islands: %v", err)
	}

	body, _ := json.Marshal(netmigrate.IslandJob{ // plain fields: cannot fail
		Spec: islandSpec(), Islands: 4, MigrateEvery: 3, Migrants: 1, Topology: string(topo),
	})
	resp, err := http.Post(router.URL()+"/v1/islands", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("islands %s: %v", topo, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("islands %s: HTTP %d: %s", topo, resp.StatusCode, msg)
	}
	rec := new(netmigrate.IslandRecord)
	if err := json.NewDecoder(resp.Body).Decode(rec); err != nil {
		t.Fatalf("islands %s: %v", topo, err)
	}

	if rec.BestRevenue != ref.Best.Revenue || rec.BestGapPct != ref.Best.GapPct ||
		rec.BestTree != ref.Best.TreeStr || rec.Simplified != ref.Best.Simplified ||
		rec.BestIsland != ref.BestIsland || rec.Migrations != ref.Migrations ||
		!reflect.DeepEqual(rec.BestPrice, ref.Best.Price) {
		t.Fatalf("islands %s: merged record diverged:\n got  %+v\n want best %+v island %d migrations %d",
			topo, rec, ref.Best, ref.BestIsland, ref.Migrations)
	}
	if len(rec.PerIsland) != len(ref.PerIsland) {
		t.Fatalf("islands %s: %d island records, want %d", topo, len(rec.PerIsland), len(ref.PerIsland))
	}
	for i, r := range rec.PerIsland {
		w := ref.PerIsland[i]
		if r.Gens != w.Gens || r.ULEvals != w.ULEvals || r.LLEvals != w.LLEvals ||
			r.BestRevenue != w.Best.Revenue || r.BestGapPct != w.Best.GapPct ||
			r.BestTree != w.Best.TreeStr || r.Simplified != w.Best.Simplified ||
			!reflect.DeepEqual(r.BestPrice, w.Best.Price) ||
			!reflect.DeepEqual(r.ULCurveY, w.ULCurve.Y) || !reflect.DeepEqual(r.GapCurveY, w.GapCurve.Y) {
			t.Fatalf("islands %s: island %d diverged across the network", topo, i)
		}
	}
}

// checkFleetSpans reads every span file the fleet wrote, asserts the
// victim job's trace crossed at least three of them (router + both
// hosting workers) and includes the failover span, and that the union
// of all records assembles into parent-linked trees with zero orphans.
func checkFleetSpans(t *testing.T, work string) {
	var files []string
	err := filepath.WalkDir(work, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".spans.jsonl") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatalf("walk %s: %v", work, err)
	}
	if len(files) == 0 {
		t.Fatalf("the fleet wrote no span files under %s", work)
	}
	var union bytes.Buffer
	inTrace, sawFailover := 0, false
	for _, f := range files {
		recs, _, err := span.ReadFile(f) // lenient: the SIGKILLed worker may have a torn tail
		if err != nil {
			t.Fatalf("read %s: %v", f, err)
		}
		hit := false
		for _, r := range recs {
			if r.Trace == fleetTraceID {
				hit = true
				if r.Name == "fleet.failover" {
					sawFailover = true
				}
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("re-encode span: %v", err)
			}
			union.Write(append(b, '\n'))
		}
		if hit {
			inTrace++
		}
	}
	if inTrace < 3 {
		t.Fatalf("victim trace %s appears in %d span files, want >= 3 (router + both hosting workers)", fleetTraceID, inTrace)
	}
	if !sawFailover {
		t.Fatalf("no fleet.failover span joined trace %s", fleetTraceID)
	}
	tree, err := tracestat.LoadSpans(&union)
	if err != nil {
		t.Fatalf("assemble spans: %v", err)
	}
	if len(tree.Orphans) != 0 {
		var names []string
		for _, o := range tree.Orphans {
			names = append(names, o.Record.Name)
		}
		t.Fatalf("fleet-wide span union has %d orphans (%s) — a hop dropped its parent link",
			len(tree.Orphans), strings.Join(names, ", "))
	}
}
