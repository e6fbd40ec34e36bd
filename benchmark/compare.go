package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"carbon/internal/stats"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords collects every "record" line of the given run outputs.
func readRecords(paths []string) ([]*record, error) {
	var out []*record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
		n := 0
		for sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), "record "); ok {
				r := new(record)
				if err := json.Unmarshal([]byte(line), r); err != nil {
					f.Close()
					return nil, fmt.Errorf("%s: %w", p, err)
				}
				out = append(out, r)
				n++
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if n == 0 {
			return nil, fmt.Errorf("%s: no record line", p)
		}
	}
	return out, nil
}

// compareMain is `carbonbench compare A... -- B...`: per workload it
// prints each metric's median and quartiles on both sides. It exits 2
// when the environment or the deterministic fields differ (a changed
// trajectory is a correctness signal, not a perf delta), 1 when an
// end-to-end metric is worse than its BENCHMARK.json bound and the
// rank-sum test gives p < 0.05, and 0 otherwise.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := -1
	for i, a := range rest {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: carbonbench compare [-spec BENCHMARK.json] A.txt... -- B.txt...")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	a, err := readRecords(rest[:sep])
	if err == nil {
		var b []*record
		if b, err = readRecords(rest[sep+1:]); err == nil {
			return compareRecords(spec, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "compare:", err)
	return 2
}

func compareRecords(spec *benchSpec, a, b []*record, w io.Writer) int {
	bounds := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		bounds[m.Name] = m
	}
	byWorkload := func(rs []*record) map[string][]*record {
		m := map[string][]*record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for n := range wa {
		if len(wb[n]) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "compare: no workload appears on both sides")
		return 2
	}
	code := 0
	for _, n := range names {
		ra, rb := wa[n], wb[n]
		fmt.Fprintf(w, "== %s: A %d runs, B %d runs\n", n, len(ra), len(rb))
		if msg := mismatch(append(append([]*record(nil), ra...), rb...)); msg != "" {
			fmt.Fprintf(w, "  NOT COMPARABLE: %s\n", msg)
			code = 2
			continue
		}
		fmt.Fprintf(w, "  %-28s %36s %36s %8s %7s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "p")
		for _, m := range metricNames(ra, rb) {
			xa, xb := values(ra, m), values(rb, m)
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			delta := (b2 - a2) / a2
			_, p := stats.RankSum(xa, xb)
			verdict := ""
			if sm, ok := bounds[m]; ok && sm.Bound != nil {
				worse := delta
				if sm.Better == "higher" {
					worse = -delta
				}
				if worse > *sm.Bound && p < 0.05 {
					verdict = fmt.Sprintf("REGRESSION (bound %g)", *sm.Bound)
					if code == 0 {
						code = 1
					}
				}
			}
			fmt.Fprintf(w, "  %-28s %12.5g [%9.5g, %9.5g] %12.5g [%9.5g, %9.5g] %+7.1f%% %7.3f %s\n",
				m, a2, a1, a3, b2, b1, b3, 100*delta, p, verdict)
		}
	}
	return code
}

// mismatch reports why a workload's runs cannot be compared: a different
// environment (anything but the code revision), or different
// deterministic fields for the same seed.
func mismatch(rs []*record) string {
	env := func(r *record) string {
		e := map[string]string{}
		for k, v := range r.Env {
			if k != "vcs_revision" {
				e[k] = v
			}
		}
		return kv(e)
	}
	bySeed := map[uint64]string{}
	first := env(rs[0])
	for _, r := range rs {
		if e := env(r); e != first {
			return fmt.Sprintf("environment differs: %s vs %s", first, e)
		}
		d := kv(r.Det)
		if prev, ok := bySeed[r.Seed]; ok && prev != d {
			return fmt.Sprintf("deterministic fields differ at seed %d: %s vs %s", r.Seed, prev, d)
		}
		bySeed[r.Seed] = d
	}
	return ""
}

// metricNames lists the metrics every run on both sides reported.
func metricNames(a, b []*record) []string {
	count := map[string]int{}
	for _, r := range append(append([]*record(nil), a...), b...) {
		for n := range r.Metrics {
			count[n]++
		}
	}
	var out []string
	for n, k := range count {
		if k == len(a)+len(b) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func values(rs []*record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}
