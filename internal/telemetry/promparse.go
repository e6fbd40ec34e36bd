package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Family is one metric family parsed from (or destined for) the
// Prometheus text exposition format — the wire model of metrics
// federation. Families converts local registries into it; a federating
// router also parses each worker's text into []Family (ParseFamilies),
// merges them all (Merge) and renders the aggregate (WriteFamilies), the
// same renderer WritePrometheus uses. The JSON tags make a Family set
// directly servable as the /v1/fleet/metrics rollup.
type Family struct {
	Name   string   `json:"name"`
	Help   string   `json:"help,omitempty"`
	Kind   string   `json:"kind"` // counter | gauge | summary | histogram | untyped
	Series []Series `json:"series"`
}

// Series is one labeled sample set within a family. Counter, gauge and
// untyped series carry Value; summary series carry Count and Sum;
// histogram series carry Bounds (ascending finite upper edges), the
// cumulative Buckets counts aligned with them, and Count/Sum (Count is
// also the implicit le="+Inf" bucket).
type Series struct {
	Labels map[string]string `json:"labels,omitempty"`

	Value float64 `json:"value,omitempty"`

	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []float64 `json:"buckets,omitempty"`
	Count   float64   `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
}

// labelKey is the series' identity inside a family: its label set
// serialized with sorted keys. Histogram bucket samples drop "le"
// before keying, so one histogram's bucket/sum/count lines group into
// one Series.
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

// ParseFamilies reads a Prometheus text exposition stream (format
// 0.0.4 — what WritePrometheus emits) back into its family model.
// Samples with no preceding TYPE line become "untyped" families;
// histogram and summary component samples (_bucket/_sum/_count) are
// grouped back into structured series. Malformed lines fail the parse:
// a federator must never mis-add samples it half-understood.
func ParseFamilies(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	fams := map[string]*Family{}
	var order []string
	get := func(name, kind string) *Family {
		f, ok := fams[name]
		if !ok {
			f = &Family{Name: name, Kind: kind}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	// series lookup within a family, creating on first sight.
	series := func(f *Family, labels map[string]string) *Series {
		key := labelKey(labels)
		for i := range f.Series {
			if labelKey(f.Series[i].Labels) == key {
				return &f.Series[i]
			}
		}
		f.Series = append(f.Series, Series{Labels: labels})
		return &f.Series[len(f.Series)-1]
	}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) == 4 && fields[1] == "TYPE" {
				kind := strings.TrimSpace(fields[3])
				f := get(fields[2], kind)
				f.Kind = kind
			} else if len(fields) == 4 && fields[1] == "HELP" {
				f := get(fields[2], "untyped")
				f.Help = unescapeHelp(fields[3])
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: prom line %d: %w", lineNo, err)
		}
		// Attribute the sample: exact family name first, then the
		// histogram/summary component suffixes against a declared family.
		if f, ok := fams[name]; ok && f.Kind != "histogram" && f.Kind != "summary" {
			s := series(f, labels)
			s.Value = value
			continue
		}
		if base, suffix, ok := componentOf(fams, name); ok {
			f := fams[base]
			switch suffix {
			case "bucket":
				le, hasLE := labels["le"]
				if !hasLE {
					return nil, fmt.Errorf("telemetry: prom line %d: bucket sample without le", lineNo)
				}
				var rest map[string]string
				for k, v := range labels {
					if k == "le" {
						continue
					}
					if rest == nil {
						rest = make(map[string]string, len(labels)-1)
					}
					rest[k] = v
				}
				s := series(f, rest)
				if le == "+Inf" {
					s.Count = value
					continue
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return nil, fmt.Errorf("telemetry: prom line %d: bad le %q", lineNo, le)
				}
				s.Bounds = append(s.Bounds, bound)
				s.Buckets = append(s.Buckets, value)
			case "sum":
				series(f, labels).Sum = value
			case "count":
				series(f, labels).Count = value
			}
			continue
		}
		// No TYPE line seen: an untyped scalar.
		f := get(name, "untyped")
		if f.Kind == "" {
			f.Kind = "untyped"
		}
		s := series(f, labels)
		s.Value = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Family, 0, len(order))
	for _, name := range order {
		f := fams[name]
		sortSeries(f.Series)
		// The exposition format guarantees ascending le within a series,
		// but sort defensively — merge relies on aligned bounds.
		for i := range f.Series {
			sortBuckets(&f.Series[i])
		}
		out = append(out, *f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out, nil
}

// componentOf resolves a histogram/summary component sample name
// ("x_bucket", "x_sum", "x_count") to its declared family.
func componentOf(fams map[string]*Family, name string) (base, suffix string, ok bool) {
	for _, suf := range []string{"bucket", "sum", "count"} {
		b, found := strings.CutSuffix(name, "_"+suf)
		if !found {
			continue
		}
		if f, exists := fams[b]; exists && (f.Kind == "histogram" || f.Kind == "summary") {
			return b, suf, true
		}
	}
	return "", "", false
}

func sortSeries(ss []Series) {
	sort.Slice(ss, func(a, b int) bool { return labelKey(ss[a].Labels) < labelKey(ss[b].Labels) })
}

func sortBuckets(s *Series) {
	if len(s.Bounds) < 2 || sort.Float64sAreSorted(s.Bounds) {
		return
	}
	idx := make([]int, len(s.Bounds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.Bounds[idx[a]] < s.Bounds[idx[b]] })
	bounds := make([]float64, len(idx))
	buckets := make([]float64, len(idx))
	for i, j := range idx {
		bounds[i], buckets[i] = s.Bounds[j], s.Buckets[j]
	}
	s.Bounds, s.Buckets = bounds, buckets
}

// parseSample splits one sample line into name, labels and value.
func parseSample(line string) (string, map[string]string, float64, error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name := line[:nameEnd]
	rest := line[nameEnd:]
	var labels map[string]string
	if rest[0] == '{' {
		end, lbls, err := parseLabels(rest)
		if err != nil {
			return "", nil, 0, err
		}
		labels = lbls
		rest = rest[end:]
	}
	valStr := strings.TrimSpace(rest)
	// A timestamp after the value is legal in the format; we never emit
	// one, but tolerate it by taking the first field only.
	if i := strings.IndexByte(valStr, ' '); i >= 0 {
		valStr = valStr[:i]
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %w", line, err)
	}
	return name, labels, v, nil
}

// parseLabels decodes a {k="v",...} block starting at s[0]=='{',
// returning the index one past the closing brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("malformed labels %q", s)
		}
		key := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("malformed label value in %q", s)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case 'n':
					val.WriteByte('\n')
				case '"':
					val.WriteByte('"')
				default:
					val.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
	}
}

func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

// WriteFamilies renders families in the text exposition format: one
// HELP/TYPE header per family, sorted series, escaped labels, counts as
// integers. It is the one renderer, so federated output scrapes exactly
// like first-party output.
func WriteFamilies(w io.Writer, fams []Family) error {
	sorted := append([]Family(nil), fams...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Name < sorted[b].Name })
	for _, f := range sorted {
		help := f.Help
		if help == "" {
			help = "CARBON federated metric."
		}
		kind := f.Kind
		if kind == "" {
			kind = "untyped"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.Name, promEscapeHelp(help), f.Name, kind); err != nil {
			return err
		}
		ss := append([]Series(nil), f.Series...)
		sortSeries(ss)
		for _, s := range ss {
			if err := writeFamilySeries(w, f.Name, kind, s); err != nil {
				return err
			}
		}
	}
	return nil
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
