package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromTarget is one registry to render in Prometheus text exposition
// format. Name prefixes every metric name (after sanitization).
type PromTarget struct {
	Name     string    // metric-name prefix, e.g. "carbon" or "carbond"
	Registry *Registry // nil renders nothing for this target
}

// promMetric is one instrument from a target's snapshot, named for the
// exposition.
type promMetric struct {
	name, help string
	v          any
}

// WritePrometheus renders the targets' registries in the Prometheus
// text exposition format (version 0.0.4), hand-rolled over
// Registry.Snapshot:
//
//   - counters   → counter
//   - gauges     → gauge
//   - timers     → summary <name>_seconds (count, sum in seconds)
//   - histograms → histogram (cumulative le buckets over the finite
//     bounds, then le="+Inf")
//
// Metric names are sanitized to the exposition grammar and written in
// sorted order, one HELP/TYPE header each, counts as integers. A name
// that two instruments sanitize to keeps the first (in target order,
// then instrument-name order), so no family carries a duplicate sample.
func WritePrometheus(w io.Writer, targets ...PromTarget) error {
	var ms []promMetric
	for _, t := range targets {
		snap := t.Registry.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			name := promName(t.Name + "_" + k)
			if _, ok := snap[k].(map[string]int64); ok {
				name += "_seconds"
			}
			ms = append(ms, promMetric{name: name, help: "CARBON metric " + t.Name + "/" + k + ".", v: snap[k]})
		}
	}
	sort.SliceStable(ms, func(a, b int) bool { return ms[a].name < ms[b].name })

	bw := bufio.NewWriter(w)
	for i, m := range ms {
		if i > 0 && m.name == ms[i-1].name {
			continue // a name collision keeps the first instrument
		}
		head := func(kind string) {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", m.name, promEscapeHelp(m.help), m.name, kind)
		}
		switch v := m.v.(type) {
		case int64:
			head("counter")
			fmt.Fprintf(bw, "%s %s\n", m.name, promCount(float64(v)))
		case float64:
			head("gauge")
			fmt.Fprintf(bw, "%s %s\n", m.name, promFloat(v))
		case map[string]int64:
			head("summary")
			fmt.Fprintf(bw, "%s_count %s\n", m.name, promCount(float64(v["count"])))
			fmt.Fprintf(bw, "%s_sum %s\n", m.name, promFloat(float64(v["total_ns"])/1e9))
		case HistSnapshot:
			head("histogram")
			cum := int64(0)
			for i, bound := range v.Bounds {
				cum += v.Counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %s\n", m.name, promFloat(bound), promCount(float64(cum)))
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %s\n", m.name, promCount(float64(v.Count)))
			fmt.Fprintf(bw, "%s_sum %s\n", m.name, promFloat(v.Sum))
			fmt.Fprintf(bw, "%s_count %s\n", m.name, promCount(float64(v.Count)))
		}
	}
	return bw.Flush()
}

// promName sanitizes a dotted instrument name into the exposition
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promEscapeHelp escapes a HELP text: backslash and line feed only.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func promFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// promCount renders an integral count as a plain integer ("1234567",
// never "1.234567e+06"); anything else falls back to promFloat.
func promCount(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
		return strconv.FormatInt(int64(x), 10)
	}
	return promFloat(x)
}
