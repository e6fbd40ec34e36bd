package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// JSONL writes one JSON document per line — the run-log format emitted
// by core's trace observer and consumed by internal/exp and the CLIs.
// Emit is safe for concurrent use (island engines log from several
// goroutines) and unbuffered: each event reaches the writer in one
// Write, so an abruptly killed process (SIGKILL, OOM) loses at most the
// line being written.
type JSONL struct {
	mu sync.Mutex
	w  io.Writer
	c  io.Closer
}

// NewJSONL wraps w in a line-oriented JSON emitter. If w is also an
// io.Closer, Close will close it.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: w}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Emit appends v as one JSON line. A nil emitter ignores the event.
func (j *JSONL) Emit(v any) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.w.Write(append(b, '\n'))
	return err
}

// Close closes the underlying writer when it is closable.
func (j *JSONL) Close() error {
	if j == nil || j.c == nil {
		return nil
	}
	return j.c.Close()
}

// DecodeLines parses a JSONL stream, invoking fn on every non-empty
// line's raw JSON. It stops at the first error, including one from the
// stream's final line even if that line is unterminated.
func DecodeLines(r io.Reader, fn func(json.RawMessage) error) error {
	_, err := decodeLines(r, fn, false)
	return err
}

// DecodeLinesLenient is DecodeLines for streams that may have been cut
// off mid-write (a SIGKILLed emitter, a torn copy): an error from fn on
// the final line is tolerated — but only when that line is missing its
// terminating newline AND is not itself well-formed JSON, the signature
// of a truncated tail. It reports whether such a tail was dropped.
// Everything else still fails: mid-file corruption is corruption, not
// truncation, and a complete, syntactically valid final line that fn
// rejects (wrong schema, bad payload) is a real error the writer
// produced on purpose — dropping it would hide the corruption the
// caller asked fn to detect.
func DecodeLinesLenient(r io.Reader, fn func(json.RawMessage) error) (truncated bool, err error) {
	return decodeLines(r, fn, true)
}

func decodeLines(r io.Reader, fn func(json.RawMessage) error, lenient bool) (bool, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return false, err
		}
		final := false
		if atEOF {
			final = true // no newline on this chunk: the stream ended mid-line
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(line) > 0 {
			raw := make(json.RawMessage, len(line))
			copy(raw, line)
			if ferr := fn(raw); ferr != nil {
				if lenient && final && !json.Valid(raw) {
					return true, nil
				}
				return false, ferr
			}
		}
		if atEOF {
			return false, nil
		}
	}
}
