package span

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"carbon/internal/telemetry"
)

// FileExporter appends span records to a JSONL file, one fsync-free
// write per record (a span line is noise next to the work it measures;
// the O_APPEND write is atomic enough that concurrent enders never
// interleave bytes). The file is opened lazily on the first export and
// created if absent, so constructing the exporter is free for jobs
// that never run. Opening an existing file whose last line is torn (a
// SIGKILLed writer's) first cuts that line off, counted as one drop,
// so a resumed job's records follow whole lines. Export never fails
// the caller: tracing is observability, and a full disk must not kill
// a job — the first error is remembered and surfaced by Close. Swallowed does not mean silent:
// every dropped record bumps the drop counter (SetDropCounter, the
// span.dropped_writes metric) and the first failure per file is logged,
// so a full disk shows up in /metrics instead of only at job end.
type FileExporter struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	buf     []byte
	err     error
	drops   *telemetry.Counter
	logged  bool         // first-failure log emitted for this file
	dropped int64        // records lost to write/open/marshal errors
	fault   func() error // test hook: injected write error
}

// NewFileExporter exports to path (append mode, created on first use).
func NewFileExporter(path string) *FileExporter {
	return &FileExporter{path: path}
}

// Path returns the exporter's target file.
func (e *FileExporter) Path() string { return e.path }

// SetDropCounter routes dropped-write counts into a telemetry counter
// (conventionally "span.dropped_writes"). Nil-safe on both sides.
func (e *FileExporter) SetDropCounter(c *telemetry.Counter) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.drops = c
	e.mu.Unlock()
}

// SetFault injects a write error before each record — the fault hook
// the dropped-writes tests use. A nil fn clears it.
func (e *FileExporter) SetFault(fn func() error) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.fault = fn
	e.mu.Unlock()
}

// Dropped reports how many records this exporter has lost so far.
func (e *FileExporter) Dropped() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// drop records one lost record under e.mu: counter bump plus a
// once-per-file log line naming the first error.
func (e *FileExporter) drop(err error) {
	e.dropped++
	e.drops.Add(1)
	if e.err == nil {
		e.err = err
	}
	if !e.logged {
		e.logged = true
		log.Printf("span: dropping writes to %s: %v", e.path, err)
	}
}

// Export appends one record. Errors are swallowed (first one kept for
// Close) but counted and logged once per file; a nil exporter ignores
// the record.
func (e *FileExporter) Export(r Record) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fault != nil {
		if err := e.fault(); err != nil {
			e.drop(err)
			return
		}
	}
	if e.f == nil {
		if e.err != nil {
			e.dropped++
			e.drops.Add(1)
			return // opening failed before; stay quiet
		}
		f, err := os.OpenFile(e.path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			e.drop(err)
			return
		}
		torn, err := trimTornTail(f)
		if err != nil {
			f.Close()
			e.drop(err)
			return
		}
		if torn { // the killed writer's partial record is lost
			e.dropped++
			e.drops.Add(1)
		}
		e.f = f
	}
	b, err := json.Marshal(r)
	if err != nil {
		e.drop(err)
		return
	}
	e.buf = append(append(e.buf[:0], b...), '\n')
	if _, err := e.f.Write(e.buf); err != nil {
		e.drop(err)
	}
}

// trimTornTail truncates f to just after its last '\n' (or to empty
// if it has none) when its last byte is not one: the torn record a
// killed writer leaves. Appending after it would bury the torn line
// mid-file, where the lenient readers no longer forgive it. It reports
// whether it cut anything.
func trimTornTail(f *os.File) (bool, error) {
	st, err := f.Stat()
	if err != nil {
		return false, err
	}
	end := st.Size()
	if end == 0 {
		return false, nil
	}
	var buf [4096]byte
	for off := end; off > 0; {
		n := min(off, int64(len(buf)))
		off -= n
		chunk := buf[:n]
		if _, err := f.ReadAt(chunk, off); err != nil {
			return false, err
		}
		if off+n == end && chunk[n-1] == '\n' {
			return false, nil
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			return true, f.Truncate(off + int64(i) + 1)
		}
	}
	return true, f.Truncate(0)
}

// Close closes the file and returns the first error Export swallowed.
func (e *FileExporter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f != nil {
		if cerr := e.f.Close(); cerr != nil && e.err == nil {
			e.err = cerr
		}
		e.f = nil
	}
	return e.err
}

// WriterExporter streams records to an io.Writer as JSONL — the
// exporter tests and benchmarks use (io.Discard, bytes.Buffer).
type WriterExporter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewWriterExporter wraps w; a nil writer yields a nil exporter.
func NewWriterExporter(w io.Writer) *WriterExporter {
	if w == nil {
		return nil
	}
	return &WriterExporter{enc: json.NewEncoder(w)}
}

// Export writes one record as a JSON line.
func (e *WriterExporter) Export(r Record) {
	if e == nil {
		return
	}
	e.mu.Lock()
	_ = e.enc.Encode(r)
	e.mu.Unlock()
}

// Collector accumulates records in memory for tests and analyzers.
type Collector struct {
	mu   sync.Mutex
	recs []Record
}

// Export appends the record.
func (c *Collector) Export(r Record) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

// Records returns a copy of everything exported so far.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Record(nil), c.recs...)
}

// HistExporter feeds ended spans into per-name duration histograms of a
// telemetry.Registry ("<prefix>.<name>_ms", exponential millisecond
// buckets), which WritePrometheus then renders as one Prometheus
// histogram per span kind. Announce records (EndNS 0) are skipped —
// they carry no duration yet.
type HistExporter struct {
	reg    *telemetry.Registry
	prefix string
}

// NewHistExporter builds the exporter; a nil registry yields nil.
func NewHistExporter(reg *telemetry.Registry, prefix string) *HistExporter {
	if reg == nil {
		return nil
	}
	return &HistExporter{reg: reg, prefix: prefix}
}

// histBuckets spans 0.05ms..~1.6s exponentially — LP solves sit at the
// bottom, backoff sleeps and long generations at the top.
var histBuckets = telemetry.ExpBuckets(0.05, 2, 16)

// Export observes the span's duration in milliseconds.
func (e *HistExporter) Export(r Record) {
	if e == nil || r.EndNS == 0 {
		return
	}
	name := e.prefix + "." + sanitizeName(r.Name) + "_ms"
	e.reg.Histogram(name, histBuckets...).Observe(float64(r.EndNS-r.StartNS) / float64(time.Millisecond))
}

func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "span"
	}
	return b.String()
}

// multi fans one record out to several exporters.
type multi []Exporter

func (m multi) Export(r Record) {
	for _, e := range m {
		e.Export(r)
	}
}

// Multi combines exporters, dropping nils (both nil interfaces and
// typed-nil *FileExporter/*HistExporter values). It returns nil when
// nothing remains — so span.New(Multi(...)) turns tracing off cleanly.
func Multi(exps ...Exporter) Exporter {
	var out multi
	for _, e := range exps {
		switch v := e.(type) {
		case nil:
		case *FileExporter:
			if v != nil {
				out = append(out, v)
			}
		case *WriterExporter:
			if v != nil {
				out = append(out, v)
			}
		case *HistExporter:
			if v != nil {
				out = append(out, v)
			}
		default:
			out = append(out, e)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// ReadRecordsLenient parses a span JSONL stream, validating the schema
// stamp on every line and tolerating a torn final line — the
// signature a SIGKILLed exporter leaves. It reports whether such a
// tail was dropped.
func ReadRecordsLenient(r io.Reader) (recs []Record, truncated bool, err error) {
	truncated, err = telemetry.DecodeLinesLenient(r, func(raw json.RawMessage) error {
		rec, derr := decodeRecord(raw)
		if derr != nil {
			return derr
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return recs, truncated, nil
}

// ReadFile loads one span file leniently.
func ReadFile(path string) (recs []Record, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	recs, truncated, err = ReadRecordsLenient(f)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return recs, truncated, nil
}

func decodeRecord(raw json.RawMessage) (Record, error) {
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return rec, err
	}
	switch {
	case rec.Schema != Schema:
		return rec, fmt.Errorf("span: unknown schema %q (want %q)", rec.Schema, Schema)
	case rec.Trace == "" || rec.Span == "":
		return rec, fmt.Errorf("span: record %q missing identity", rec.Name)
	case rec.Name == "":
		return rec, fmt.Errorf("span: record %s/%s missing name", rec.Trace, rec.Span)
	case rec.StartNS <= 0:
		return rec, fmt.Errorf("span: record %q has no start", rec.Name)
	case rec.EndNS != 0 && rec.EndNS < rec.StartNS:
		return rec, fmt.Errorf("span: record %q ends before it starts", rec.Name)
	}
	return rec, nil
}
