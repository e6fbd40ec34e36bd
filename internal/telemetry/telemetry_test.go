package telemetry_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"carbon/internal/par"
	"carbon/internal/telemetry"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Load() != 4 {
		t.Fatalf("counter = %d, want 4", c.Load())
	}
	if reg.Counter("c") != c {
		t.Fatal("lookup is not get-or-create")
	}
	g := reg.Gauge("g")
	g.Set(2.5)
	if g.Load() != 2.5 {
		t.Fatalf("gauge = %v", g.Load())
	}
	tm := reg.Timer("t")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 40*time.Millisecond || tm.Mean() != 20*time.Millisecond {
		t.Fatalf("timer count=%d total=%v mean=%v", tm.Count(), tm.Total(), tm.Mean())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var reg *telemetry.Registry // telemetry off
	c := reg.Counter("x")
	g := reg.Gauge("x")
	tm := reg.Timer("x")
	h := reg.Histogram("x", 1, 2)
	c.Add(5)
	g.Set(1)
	tm.Observe(time.Second)
	h.Observe(1.5)
	if c.Load() != 0 || g.Load() != 0 || tm.Count() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if got := reg.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot = %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := telemetry.NewHistogram(1, 10, 100)
	for _, x := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(x)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 2} // (≤1)=0.5,1  (≤10)=5  (≤100)=50  overflow=500,5000
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 || s.Sum != 5556.5 {
		t.Fatalf("count=%d sum=%g", s.Count, s.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	got := telemetry.ExpBuckets(10, 2, 4)
	want := []float64{10, 20, 40, 80}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", got)
		}
	}
}

// TestConcurrentUpdatesFromWorkers exercises shared instruments from
// all par workers simultaneously — the island/evaluator sharing
// pattern. Run under -race (make race) this is the data-race check for
// the whole metrics layer.
func TestConcurrentUpdatesFromWorkers(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("hits")
	tm := reg.Timer("lat")
	h := reg.Histogram("v", telemetry.ExpBuckets(1, 10, 6)...)
	const n = 4096
	par.ForEach(n, 8, func(i int) {
		c.Inc()
		tm.Observe(time.Duration(i))
		h.Observe(float64(i % 1000))
		// Racing get-or-create lookups must also be safe.
		reg.Counter("hits").Add(0)
	})
	if c.Load() != n {
		t.Fatalf("counter = %d, want %d", c.Load(), n)
	}
	if tm.Count() != n {
		t.Fatalf("timer count = %d, want %d", tm.Count(), n)
	}
	if s := h.Snapshot(); s.Count != n {
		t.Fatalf("hist count = %d, want %d", s.Count, n)
	}
}

func TestSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("a").Add(7)
	reg.Timer("b").Observe(time.Millisecond)
	reg.Histogram("h", 1, 2).Observe(1.5)
	snap := reg.Snapshot()
	if snap["a"] != int64(7) {
		t.Fatalf("snapshot a = %v", snap["a"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJSONL(&buf)
	type ev struct {
		K string `json:"k"`
		N int    `json:"n"`
	}
	for i := 0; i < 3; i++ {
		if err := j.Emit(ev{K: "gen", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	var got []ev
	err := telemetry.DecodeLines(&buf, func(raw json.RawMessage) error {
		var e ev
		if err := json.Unmarshal(raw, &e); err != nil {
			return err
		}
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].N != 2 {
		t.Fatalf("decoded %v", got)
	}
	var nilJ *telemetry.JSONL
	if err := nilJ.Emit(ev{}); err != nil {
		t.Fatal("nil emitter should no-op")
	}
}

func TestHandlerServesMetricsExpvarAndPprof(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("core.generations").Add(42)
	srv := httptest.NewServer(telemetry.Handler(map[string]*telemetry.Registry{"run": reg}))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return buf.String()
	}

	metrics := get("/metrics")
	var parsed map[string]map[string]any
	if err := json.Unmarshal([]byte(metrics), &parsed); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, metrics)
	}
	if parsed["run"]["core.generations"] != float64(42) {
		t.Fatalf("/metrics = %v", parsed)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, `"memstats"`) {
		t.Fatalf("/debug/vars missing the runtime's memstats:\n%.200s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%.200s", idx)
	}
}

// TestHandlerWithoutRegistries checks that a handler given no registry
// mounts no metrics routes (404, not an empty body) and still serves the
// process-level endpoints.
func TestHandlerWithoutRegistries(t *testing.T) {
	srv := httptest.NewServer(telemetry.Handler(nil))
	defer srv.Close()
	for path, want := range map[string]int{
		"/metrics":            http.StatusNotFound,
		"/metrics/prometheus": http.StatusNotFound,
		"/debug/vars":         http.StatusOK,
		"/debug/pprof/":       http.StatusOK,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestForEachTimedOccupancy(t *testing.T) {
	reg := telemetry.NewRegistry()
	wm := par.NewWaveMetrics(reg, "wave")
	par.ForEachTimed(64, 4, wm, func(i int) { time.Sleep(100 * time.Microsecond) })
	if wm.Waves.Load() != 1 || wm.Items.Load() != 64 {
		t.Fatalf("waves=%d items=%d", wm.Waves.Load(), wm.Items.Load())
	}
	if wm.Busy.Count() != 64 {
		t.Fatalf("busy observations = %d", wm.Busy.Count())
	}
	if occ := wm.Occupancy(); occ <= 0 {
		t.Fatalf("occupancy = %v", occ)
	}
	// nil metrics must behave exactly like ForEach.
	total := 0
	par.ForEachTimed(10, 1, nil, func(i int) { total += i })
	if total != 45 {
		t.Fatalf("nil-metrics ForEachTimed total = %d", total)
	}
	if par.NewWaveMetrics(nil, "x") != nil {
		t.Fatal("NewWaveMetrics(nil) should be nil")
	}
}
