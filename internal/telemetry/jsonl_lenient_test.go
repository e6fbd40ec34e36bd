package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func collectLines(t *testing.T, src string, lenient bool) (n int, truncated bool, err error) {
	t.Helper()
	fn := func(raw json.RawMessage) error {
		var v map[string]any
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
		n++
		return nil
	}
	if lenient {
		truncated, err = DecodeLinesLenient(strings.NewReader(src), fn)
		return
	}
	err = DecodeLines(strings.NewReader(src), fn)
	return
}

// TestDecodeLinesLenientTruncatedTail: a stream cut mid-line (the
// signature a SIGKILLed emitter leaves) parses up to the cut, reports
// the truncation, and returns no error.
func TestDecodeLinesLenientTruncatedTail(t *testing.T) {
	src := `{"gen":1}` + "\n" + `{"gen":2}` + "\n" + `{"gen":3,"best":12.`
	n, truncated, err := collectLines(t, src, true)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("truncated tail not reported")
	}
	if n != 2 {
		t.Fatalf("parsed %d lines, want 2", n)
	}

	// The strict decoder must still reject the same stream.
	if _, _, err := collectLines(t, src, false); err == nil {
		t.Fatal("strict DecodeLines accepted a truncated tail")
	}
}

// TestDecodeLinesLenientMidFileCorruption: garbage on an interior line
// is corruption, not truncation — lenient mode still fails.
func TestDecodeLinesLenientMidFileCorruption(t *testing.T) {
	src := `{"gen":1}` + "\n" + `{"gen":2,"bro` + "\n" + `{"gen":3}` + "\n"
	if _, _, err := collectLines(t, src, true); err == nil {
		t.Fatal("interior corruption tolerated")
	}
}

// TestDecodeLinesLenientCompleteFinalLineNoNewline: a final line that is
// valid JSON but lost only its newline is accepted, not dropped.
func TestDecodeLinesLenientCompleteFinalLineNoNewline(t *testing.T) {
	src := `{"gen":1}` + "\n" + `{"gen":2}`
	n, truncated, err := collectLines(t, src, true)
	if err != nil || truncated {
		t.Fatalf("err=%v truncated=%v", err, truncated)
	}
	if n != 2 {
		t.Fatalf("parsed %d lines, want 2", n)
	}
}

// TestDecodeLinesLenientTruncatedThenAppended: a torn tail that a later
// writer appended after (crash, restart, append without repair) turns
// the tear into an interior corrupt line — `{"gen":3,"best":12.` fused
// with the next record. The lenient reader must report it, not parse
// past it: the trace's generation sequence is broken at that point.
func TestDecodeLinesLenientTruncatedThenAppended(t *testing.T) {
	torn := `{"gen":1}` + "\n" + `{"gen":2,"best":12.`
	appended := torn + `{"gen":3}` + "\n" + `{"gen":4}` + "\n"
	if _, _, err := collectLines(t, appended, true); err == nil {
		t.Fatal("truncated-then-appended trace tolerated")
	}
	// Sanity: before the append the same tear was tolerable truncation.
	n, truncated, err := collectLines(t, torn, true)
	if err != nil || !truncated || n != 1 {
		t.Fatalf("pre-append tear: n=%d truncated=%v err=%v", n, truncated, err)
	}
}

// TestDecodeLinesLenientValidFinalLineRejectedByFn pins the EOF-only
// tolerance boundary: an unterminated final line that is syntactically
// complete JSON is NOT a truncation signature, so an error from fn
// (wrong schema, bad payload) must surface instead of being dropped.
func TestDecodeLinesLenientValidFinalLineRejectedByFn(t *testing.T) {
	bad := errors.New("schema mismatch")
	fn := func(raw json.RawMessage) error {
		var v struct {
			Gen int `json:"gen"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
		if v.Gen == 0 {
			return bad
		}
		return nil
	}
	src := `{"gen":1}` + "\n" + `{"wrong":true}`
	truncated, err := DecodeLinesLenient(strings.NewReader(src), fn)
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want the fn rejection", err)
	}
	if truncated {
		t.Fatal("a complete final line reported as truncated")
	}
}

// failEvery is an io.Writer whose every nth Write fails.
type failEvery struct {
	n, calls int
	buf      bytes.Buffer
}

func (w *failEvery) Write(p []byte) (int, error) {
	w.calls++
	if w.calls%w.n == 0 {
		return 0, errors.New("sink down")
	}
	return w.buf.Write(p)
}

// TestJSONLWriteErrorIsPerEvent: a failed write loses only its own
// event; the next Emit writes through again.
func TestJSONLWriteErrorIsPerEvent(t *testing.T) {
	w := &failEvery{n: 2}
	j := NewJSONL(w)
	for i := 0; i < 4; i++ {
		err := j.Emit(map[string]int{"i": i})
		if failed := i%2 == 1; failed != (err != nil) {
			t.Fatalf("emit %d: err = %v", i, err)
		}
	}
	if got, want := w.buf.String(), "{\"i\":0}\n{\"i\":2}\n"; got != want {
		t.Fatalf("sink holds %q, want %q", got, want)
	}
}

func TestDecodeLinesBlankAndCRLF(t *testing.T) {
	src := "\n" + `{"a":1}` + "\r\n" + "\n" + `{"b":2}` + "\n"
	n, truncated, err := collectLines(t, src, true)
	if err != nil || truncated || n != 2 {
		t.Fatalf("n=%d truncated=%v err=%v", n, truncated, err)
	}
}

// TestJSONLAutoFlush: every emitted event is visible in the sink as
// soon as Emit returns — so a kill between generations loses nothing
// already emitted.
func TestJSONLAutoFlush(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	for i := 0; i < 3; i++ {
		if err := j.Emit(map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(buf.String(), "\n"); got != i+1 {
			t.Fatalf("after emit %d the sink holds %d lines", i, got)
		}
	}
	var nilJ *JSONL
	if nilJ.Emit(1) != nil || nilJ.Close() != nil {
		t.Fatal("nil emitter must no-op")
	}
}
