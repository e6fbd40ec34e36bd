package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// smokeSizes shrink every workload so the whole smoke test stays at a few
// seconds; the full sizes live in workloadList.
var smokeSizes = map[string]size{
	"paper-gen":  {Items: 1, Gens: 1},
	"small-gen":  {Items: 2, Gens: 2},
	"table-cell": {Items: 1, Gens: 1, Runs: 1},
	"service":    {Items: 2, Gens: 2},
}

// TestWorkloadsSmoke runs each workload untraced and traced at a reduced
// size and checks that every metric BENCHMARK.json names is reported with
// its unit, that the correctness checks ran and passed, and that the two
// same-seed runs agree on every deterministic field.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			sz, ok := smokeSizes[w.name]
			if !ok {
				t.Fatalf("no smoke size for %s", w.name)
			}
			var recs []*record
			for _, traced := range []bool{false, true} {
				rec, err := run(w, options{seed: 1, traced: traced, workDir: t.TempDir(),
					traceDir: t.TempDir()}, sz)
				if err != nil {
					t.Fatalf("traced=%t: %v", traced, err)
				}
				if rec.Attempted == 0 || rec.Failed != 0 {
					t.Fatalf("traced=%t: %d of %d checks failed: %s", traced, rec.Failed, rec.Attempted, rec.Failure)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := rec.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%t: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
				var out bytes.Buffer
				if err := rec.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var s summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil || !s.Correct || len(s.Metrics) != len(want) {
					t.Fatalf("traced=%t: last line %q (%v)", traced, lines[len(lines)-1], err)
				}
				recs = append(recs, rec)
			}
			if a, b := kv(recs[0].Det), kv(recs[1].Det); a != b || recs[0].Det["result_hash"] == "" {
				t.Fatalf("deterministic fields differ between same-seed runs:\n%s\n%s", a, b)
			}
			if code := compareRecords(spec, recs[:1], recs[1:], io.Discard); code != 0 {
				t.Fatalf("compare of two same-seed runs exited %d", code)
			}
		})
	}
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(def.Workloads), len(workloadList))
	}
	for i, w := range def.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadList[i].name)
		}
	}
	for _, pair := range []struct {
		declared []specMetric
		emitted  []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(pair.declared) != len(pair.emitted) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the summary line carries %d", len(pair.declared), len(pair.emitted))
		}
		for i, m := range pair.declared {
			if m.Name != pair.emitted[i].name || m.Unit != pair.emitted[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], summary %s [%s]", i, m.Name, m.Unit, pair.emitted[i].name, pair.emitted[i].unit)
			}
		}
	}
	return spec
}

// TestCompareFlagsChangedTrajectory: a differing deterministic field at
// the same seed makes the runs incomparable (exit 2), whatever the timings.
func TestCompareFlagsChangedTrajectory(t *testing.T) {
	mk := func(hash string, v float64) *record {
		return &record{Workload: "w", Seed: 1, Env: map[string]string{"go": "x", "vcs_revision": hash},
			Det: map[string]string{"result_hash": hash}, Metrics: map[string]metric{"throughput": {v, "1/s"}}}
	}
	bound := 0.1
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "throughput", Unit: "1/s", Better: "higher", Bound: &bound}}}
	if code := compareRecords(spec, []*record{mk("a", 1)}, []*record{mk("b", 1)}, io.Discard); code != 2 {
		t.Fatalf("changed trajectory: exit %d, want 2", code)
	}
	var a, b []*record
	for i := 0; i < 8; i++ {
		a = append(a, mk("a", 10+float64(i)/10))
		b = append(b, mk("a", 5+float64(i)/10))
	}
	if code := compareRecords(spec, a, b, io.Discard); code != 1 {
		t.Fatalf("halved throughput: exit %d, want 1", code)
	}
	if code := compareRecords(spec, a, a, io.Discard); code != 0 {
		t.Fatalf("identical sides: exit %d, want 0", code)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
