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
// HELP/TYPE headers, name sanitization, sorted families, summary and
// histogram encodings.
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

	var b strings.Builder
	if err := WritePrometheus(&b, PromTarget{Name: "carbon", Registry: reg}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP carbon_bcpop_cost CARBON metric carbon/bcpop.cost.
# TYPE carbon_bcpop_cost histogram
carbon_bcpop_cost_bucket{le="1"} 1
carbon_bcpop_cost_bucket{le="2"} 1
carbon_bcpop_cost_bucket{le="4"} 2
carbon_bcpop_cost_bucket{le="+Inf"} 3
carbon_bcpop_cost_sum 103.5
carbon_bcpop_cost_count 3
# HELP carbon_core_breed_seconds CARBON metric carbon/core.breed.
# TYPE carbon_core_breed_seconds summary
carbon_core_breed_seconds_count 2
carbon_core_breed_seconds_sum 2
# HELP carbon_core_generations CARBON metric carbon/core.generations.
# TYPE carbon_core_generations counter
carbon_core_generations 42
# HELP carbon_par_occupancy CARBON metric carbon/par.occupancy.
# TYPE carbon_par_occupancy gauge
carbon_par_occupancy 0.75
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestPrometheusMultiTargetFamilies: every target's instruments render
// under its own prefix, sorted by name across targets, and a name two
// targets both claim keeps the first target's instrument.
func TestPrometheusMultiTargetFamilies(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("job.gens").Add(3)
	r2.Counter("job.gens").Add(8)
	r2.Gauge("a").Set(1)
	var b strings.Builder
	err := WritePrometheus(&b,
		PromTarget{Name: "w", Registry: r2},
		PromTarget{Name: "v", Registry: r1},
		PromTarget{Name: "w", Registry: r1},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP v_job_gens CARBON metric v/job.gens.
# TYPE v_job_gens counter
v_job_gens 3
# HELP w_a CARBON metric w/a.
# TYPE w_a gauge
w_a 1
# HELP w_job_gens CARBON metric w/job.gens.
# TYPE w_job_gens counter
w_job_gens 8
`
	if b.String() != want {
		t.Fatalf("multi-target exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestPromNameCollision: instruments whose names sanitize to one metric
// name render one family with one sample, the first instrument's (in
// name order), whatever their kinds. A second sample under one TYPE
// line would be a duplicate series, which Prometheus rejects.
func TestPromNameCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.b").Add(1)
	reg.Counter("a_b").Add(2)
	reg.Counter("c.d").Add(3)
	reg.Gauge("c_d").Set(4)
	var b strings.Builder
	if err := WritePrometheus(&b, PromTarget{Name: "p", Registry: reg}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP p_a_b CARBON metric p/a.b.
# TYPE p_a_b counter
p_a_b 1
# HELP p_c_d CARBON metric p/c.d.
# TYPE p_c_d counter
p_c_d 3
`
	if b.String() != want {
		t.Fatalf("colliding names:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
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
