package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// endToEnd and perLayer are the metrics of the final JSON line (names and
// units exactly as BENCHMARK.json declares them; benchmark_test.go holds
// the two in step). Every workload reports all of them. Workload-specific
// metrics (service tails, serve/cluster/cobra layers) are printed as extra
// "name value unit" lines and kept in the record.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_ms.p50", "ms"},
	{"max_rss_mb", "MiB"},
	{"best_gap_pct", "%"},
	{"best_revenue", "revenue"},
}

var perLayer = []metricSpec{
	{"core.step_ms.p50", "ms"},
	{"core.relax_share", "ratio"},
	{"core.pred_eval_share", "ratio"},
	{"core.prey_eval_share", "ratio"},
	{"core.breed_share", "ratio"},
	{"core.coord_share", "ratio"},
	{"core.allocs_per_gen", "count"},
	{"par.eval_occupancy", "workers"},
	{"lp.solves_per_gen", "count"},
	{"lp.warm_solve_us.p50", "us"},
	{"lp.cold_solve_us.p50", "us"},
	{"lp.pivots_per_solve.warm", "count"},
	{"lp.pivots_per_solve.cold", "count"},
	{"bcpop.prepare_us.p50", "us"},
	{"bcpop.eval_program_us.p50", "us"},
	{"bcpop.cache_hit_ratio", "ratio"},
	{"bcpop.evals_per_gen", "count"},
	{"gp.compile_us.p50", "us"},
	{"gp.tree_nodes.mean", "nodes"},
	{"covering.score_us.p50", "us"},
	{"covering.greedy_us.p50", "us"},
	{"trace_overhead_pct", "%"},
}

type metricSpec struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's complete result. Env and Det are what compare
// requires to match before it compares timings: Env describes the
// machine and the pinned configuration, Det the deterministic outcome
// (a changed trajectory is a correctness signal, not a perf delta).
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Env       map[string]string `json:"env"`
	Det       map[string]string `json:"det"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failure   string            `json:"failure,omitempty"` // first failed check
}

func (r *record) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one correctness check; failures are counted, and the
// first one is described, instead of aborting the run.
func (r *record) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if r.Failure == "" {
			r.Failure = fmt.Sprintf(format, args...)
		}
	}
}

// summary is the final output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *record) summary() (summary, error) {
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	s := summary{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metric{}}
	for _, sp := range specs {
		m, ok := r.Metrics[sp.name]
		if !ok || m.Unit != sp.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return s, fmt.Errorf("metric %s missing or not finite (%v)", sp.name, m)
		}
		s.Metrics[sp.name] = m
	}
	return s, nil
}

func (r *record) print(w io.Writer) error {
	s, err := r.summary()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# carbonbench workload=%s seed=%d traced=%t\n", r.Workload, r.Seed, r.Traced)
	fmt.Fprintf(bw, "env %s\n", kv(r.Env))
	fmt.Fprintf(bw, "det %s\n", kv(r.Det))
	if r.Failure != "" {
		fmt.Fprintf(bw, "failure %s\n", r.Failure)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(bw, "%s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "record %s\n", full)
	last, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", last)
	return bw.Flush()
}

func kv(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(m[k])
	}
	return strings.Join(parts, " ")
}

// environment stamps the run with what must match before two runs'
// timings may be compared. vcs_revision identifies the code under test
// and is the one field compare lets differ.
func environment(workers int) map[string]string {
	env := map[string]string{
		"go":           runtime.Version(),
		"os_arch":      runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":          cpuModel(),
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"workers":      strconv.Itoa(workers),
		"vcs_revision": "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["vcs_revision"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hasher accumulates a run's deterministic outcome bit-exactly.
type hasher struct{ b []byte }

func (h *hasher) f(xs ...float64) {
	for _, x := range xs {
		h.b = binary.LittleEndian.AppendUint64(h.b, math.Float64bits(x))
	}
}

func (h *hasher) i(xs ...int) {
	for _, x := range xs {
		h.b = binary.LittleEndian.AppendUint64(h.b, uint64(x))
	}
}

func (h *hasher) s(s string) { h.i(len(s)); h.b = append(h.b, s...) }

func (h *hasher) sum() string {
	d := sha256.Sum256(h.b)
	return hex.EncodeToString(d[:8])
}
