package telemetry

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusGoldenFormat pins the exposition format byte-for-byte:
// HELP/TYPE headers, name sanitization, sorted families, label
// escaping, summary and histogram encodings.
func TestPrometheusGoldenFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.generations").Add(42)
	reg.Gauge("par.occupancy").Set(0.75)
	reg.Timer("core.breed").Observe(1500 * time.Millisecond)
	reg.Timer("core.breed").Observe(500 * time.Millisecond)
	h := reg.Histogram("bcpop.cost", 1, 2, 4)
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)

	target := PromTarget{
		Name:     "carbon",
		Labels:   map[string]string{"job": `j1"x\y` + "\n"},
		Registry: reg,
	}
	var b strings.Builder
	if err := WritePrometheus(&b, target); err != nil {
		t.Fatal(err)
	}
	want := `# HELP carbon_bcpop_cost CARBON metric carbon/bcpop.cost.
# TYPE carbon_bcpop_cost histogram
carbon_bcpop_cost_bucket{job="j1\"x\\y\n",le="1"} 1
carbon_bcpop_cost_bucket{job="j1\"x\\y\n",le="2"} 1
carbon_bcpop_cost_bucket{job="j1\"x\\y\n",le="4"} 2
carbon_bcpop_cost_bucket{job="j1\"x\\y\n",le="+Inf"} 3
carbon_bcpop_cost_sum{job="j1\"x\\y\n"} 103.5
carbon_bcpop_cost_count{job="j1\"x\\y\n"} 3
# HELP carbon_core_breed_seconds CARBON metric carbon/core.breed.
# TYPE carbon_core_breed_seconds summary
carbon_core_breed_seconds_count{job="j1\"x\\y\n"} 2
carbon_core_breed_seconds_sum{job="j1\"x\\y\n"} 2
# HELP carbon_core_generations CARBON metric carbon/core.generations.
# TYPE carbon_core_generations counter
carbon_core_generations{job="j1\"x\\y\n"} 42
# HELP carbon_par_occupancy CARBON metric carbon/par.occupancy.
# TYPE carbon_par_occupancy gauge
carbon_par_occupancy{job="j1\"x\\y\n"} 0.75
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestPrometheusMultiTargetFamilies: two targets sharing a Name merge
// into single families (one HELP/TYPE header, one series per target) —
// the per-job label shape carbond serves.
func TestPrometheusMultiTargetFamilies(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("job.gens").Add(3)
	r2.Counter("job.gens").Add(8)
	var b strings.Builder
	err := WritePrometheus(&b,
		PromTarget{Name: "carbond_job", Labels: map[string]string{"job": "j000001"}, Registry: r1},
		PromTarget{Name: "carbond_job", Labels: map[string]string{"job": "j000002"}, Registry: r2},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE carbond_job_job_gens counter") != 1 {
		t.Fatalf("want exactly one TYPE header:\n%s", out)
	}
	if !strings.Contains(out, `carbond_job_job_gens{job="j000001"} 3`) ||
		!strings.Contains(out, `carbond_job_job_gens{job="j000002"} 8`) {
		t.Fatalf("missing per-job series:\n%s", out)
	}
}

// TestPrometheusHistogramMonotonic checks cumulative bucket counts never
// decrease and end at the total count, for an adversarial value spread.
func TestPrometheusHistogramMonotonic(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", ExpBuckets(0.001, 4, 8)...)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%13) * 0.037)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, PromTarget{Name: "t", Registry: reg}); err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	var total, bucketInf int64
	for _, line := range strings.Split(b.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "t_lat_bucket"):
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < last {
				t.Fatalf("bucket counts decreased: %q after %d", line, last)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				bucketInf = v
			}
		case strings.HasPrefix(line, "t_lat_count"):
			total, _ = strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		}
	}
	if total != 1000 || bucketInf != total {
		t.Fatalf("+Inf bucket %d, count %d, want both 1000", bucketInf, total)
	}
}

// TestPrometheusEndpointRace scrapes /metrics/prometheus while writers
// hammer every instrument kind — the -race gate for the exposition path.
func TestPrometheusEndpointRace(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(map[string]*Registry{"live": reg}))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hot.counter")
			g := reg.Gauge("hot.gauge")
			tm := reg.Timer("hot.timer")
			h := reg.Histogram("hot.hist", 1, 10, 100)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				tm.Observe(time.Duration(i))
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		resp, err := srv.Client().Get(srv.URL + "/metrics/prometheus")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		if i > 2 && !strings.Contains(string(body), "live_hot_counter") {
			t.Fatalf("scrape %d missing counter:\n%s", i, body)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPromHostileLabels pins the output for adversarial label NAMES and
// values. Label names have a stricter grammar than metric names — no
// colon — and used to be sanitized with promName, which let "run:id"
// through as a label name Prometheus rejects at scrape time. Values get
// the full backslash/newline/quote escaping in the order the exposition
// format 0.0.4 requires (backslash first, or the escapes themselves get
// re-escaped).
func TestPromHostileLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(1)
	var b strings.Builder
	err := WritePrometheus(&b, PromTarget{
		Name: "carbond",
		Labels: map[string]string{
			"run:id":   `back\slash`,
			"9job.val": "line1\nline2",
			"ok_name":  `quote"both\` + "\n",
			"":         "empty-key",
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP carbond_hits CARBON metric carbond/hits.
# TYPE carbond_hits counter
carbond_hits{_="empty-key",_job_val="line1\nline2",ok_name="quote\"both\\\n",run_id="back\\slash"} 1
`
	if b.String() != want {
		t.Fatalf("hostile-label exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
	for _, tc := range []struct{ in, want string }{
		{"run:id", "run_id"}, // colon legal in metric names, not label names
		{"9lives", "_lives"}, // no leading digit
		{"a.b-c", "a_b_c"},   // dots and dashes flattened
		{"_ok_9", "_ok_9"},   // already legal
		{"", "_"},            // never emit an empty label name
		{"héllo", "h_llo"},   // non-ASCII flattened
	} {
		if got := promLabelName(tc.in); got != tc.want {
			t.Fatalf("promLabelName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestPromNameSanitization covers the metric-name grammar edge cases.
func TestPromNameSanitization(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"core.generations", "core_generations"},
		{"9lives", "_lives"},
		{"a-b c/d", "a_b_c_d"},
		{"", "_"},
		{"ok_name:x9", "ok_name:x9"},
	} {
		if got := promName(tc.in); got != tc.want {
			t.Fatalf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	var b strings.Builder
	if err := WritePrometheus(&b, PromTarget{Name: "x", Registry: nil}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry rendered %q", b.String())
	}
}
