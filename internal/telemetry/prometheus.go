package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromTarget is one labeled registry to render in Prometheus text
// exposition format. Name prefixes every metric (after sanitization),
// so targets with the same Name and different Labels merge into one
// metric family with one series per target — the shape carbond uses
// for per-job labels.
type PromTarget struct {
	Name     string            // metric-name prefix, e.g. "carbon" or "carbond_job"
	Labels   map[string]string // extra labels stamped on every series
	Registry *Registry         // nil renders nothing for this target
}

// WritePrometheus renders the targets in the Prometheus text exposition
// format (version 0.0.4): WriteFamilies over Families(targets...).
func WritePrometheus(w io.Writer, targets ...PromTarget) error {
	return WriteFamilies(w, Families(targets...))
}

// Family is one metric family destined for the Prometheus text
// exposition format: the model between a registry snapshot (Families)
// and the renderer (WriteFamilies).
type Family struct {
	Name   string
	Help   string
	Kind   string // counter | gauge | summary | histogram
	Series []Series
}

// Series is one labeled sample set within a family. Counter and gauge
// series carry Value; summary series carry Count and Sum; histogram
// series carry Bounds (ascending finite upper edges), the cumulative
// Buckets counts aligned with them, and Count/Sum (Count is also the
// implicit le="+Inf" bucket).
type Series struct {
	Labels map[string]string

	Value float64

	Bounds  []float64
	Buckets []float64
	Count   float64
	Sum     float64
}

// Families converts the targets' registries, hand-rolled over
// Registry.Snapshot, into the family model:
//
//   - counters      → counter
//   - gauges        → gauge
//   - timers        → summary <name>_seconds (Count, Sum in seconds)
//   - histograms    → histogram (cumulative Buckets over finite Bounds)
//
// Metric and label names are sanitized to the exposition grammar.
// Families come back sorted by name with their series sorted by labels;
// a name claimed by two incompatible kinds keeps the first.
func Families(targets ...PromTarget) []Family {
	fams := map[string]*Family{}
	for _, t := range targets {
		snap := t.Registry.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var labels map[string]string
		if len(t.Labels) > 0 {
			labels = make(map[string]string, len(t.Labels))
			for k, v := range t.Labels {
				labels[promLabelName(k)] = v
			}
		}
		for _, k := range keys {
			s := Series{Labels: labels}
			var kind, suffix string
			switch v := snap[k].(type) {
			case int64:
				kind, s.Value = "counter", float64(v)
			case float64:
				kind, s.Value = "gauge", v
			case map[string]int64:
				kind, suffix = "summary", "_seconds"
				s.Count, s.Sum = float64(v["count"]), float64(v["total_ns"])/1e9
			case HistSnapshot:
				kind = "histogram"
				s.Bounds = append([]float64(nil), v.Bounds...)
				s.Buckets = make([]float64, len(v.Bounds))
				cum := int64(0)
				for i := range v.Bounds {
					cum += v.Counts[i]
					s.Buckets[i] = float64(cum)
				}
				s.Count, s.Sum = float64(v.Count), v.Sum
			default:
				continue
			}
			name := promName(t.Name+"_"+k) + suffix
			f, ok := fams[name]
			if !ok {
				f = &Family{Name: name, Help: "CARBON metric " + t.Name + "/" + k + ".", Kind: kind}
				fams[name] = f
			}
			if f.Kind != kind {
				continue // name collision across incompatible kinds: keep the first
			}
			f.Series = append(f.Series, s)
		}
	}
	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		sortSeries(f.Series)
		out = append(out, *f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// labelKey is the series' identity inside a family: its label set
// serialized with sorted keys.
func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\x00')
		b.WriteString(labels[k])
		b.WriteByte('\x00')
	}
	return b.String()
}

func sortSeries(ss []Series) {
	sort.Slice(ss, func(a, b int) bool { return labelKey(ss[a].Labels) < labelKey(ss[b].Labels) })
}

// WriteFamilies renders families, in the order given, in the text
// exposition format: one HELP/TYPE header per family, escaped labels,
// counts as integers. Families returns them sorted by name with sorted
// series, so the output is deterministic.
func WriteFamilies(w io.Writer, fams []Family) error {
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.Name, promEscapeHelp(f.Help), f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			if err := writeFamilySeries(w, f.Name, f.Kind, s); err != nil {
				return err
			}
		}
	}
	return nil
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

// promLabelName sanitizes a label key into the label-name grammar
// [a-zA-Z_][a-zA-Z0-9_]*. Unlike metric names (promName), label names
// may NOT contain ':' — colons are reserved for recording rules — so
// label keys get their own sanitizer rather than reusing promName,
// which used to leak colons into label names and produce output
// Prometheus refuses to scrape.
func promLabelName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' ||
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

// promLabels renders {k="v",...} with keys sorted, or "" when empty.
func promLabels(labels map[string]string) string {
	return promLabelsWith(labels, "", "")
}

// promLabelsWith is promLabels plus one extra pair appended last (used
// for histogram le labels). extraKey=="" omits the extra pair.
func promLabelsWith(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promLabelName(k))
		b.WriteString(`="`)
		b.WriteString(promEscapeLabel(labels[k]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(promEscapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promEscapeLabel escapes a label value: backslash, double quote and
// line feed, per the exposition format.
func promEscapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
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

func writeFamilySeries(w io.Writer, name, kind string, s Series) error {
	lbl := promLabels(s.Labels)
	switch kind {
	case "histogram":
		for i, bound := range s.Bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %s\n",
				name, promLabelsWith(s.Labels, "le", promFloat(bound)), promCount(s.Buckets[i])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %s\n",
			name, promLabelsWith(s.Labels, "le", "+Inf"), promCount(s.Count)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, lbl, promFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %s\n", name, lbl, promCount(s.Count))
		return err
	case "summary":
		if _, err := fmt.Fprintf(w, "%s_count%s %s\n", name, lbl, promCount(s.Count)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, lbl, promFloat(s.Sum))
		return err
	case "counter":
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, lbl, promCount(s.Value))
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, lbl, promFloat(s.Value))
		return err
	}
}
