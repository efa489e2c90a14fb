package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONLWriter streams events to an io.Writer as JSON Lines, one event per
// line, stamping each with a monotonically increasing sequence number. The
// writer buffers internally; call Flush (or Close) before reading the
// underlying stream. Safe for concurrent use.
type JSONLWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	seq int64
	err error
}

// NewJSONLWriter returns a JSONL sink writing to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriter(w)}
}

// Trace encodes one event as a JSON line. Encoding errors are sticky and
// reported by Err; tracing never fails the traced execution.
func (j *JSONLWriter) Trace(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	ev.Seq = j.seq
	b, err := json.Marshal(ev)
	if err != nil {
		j.err = err
		return
	}
	j.seq++
	b = append(b, '\n')
	if _, err := j.bw.Write(b); err != nil {
		j.err = err
	}
}

// Flush writes any buffered events to the underlying writer.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.bw.Flush()
}

// Err returns the first error encountered while encoding or writing.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ValidateLine decodes one JSONL line strictly (unknown fields and
// anything but whitespace after the event rejected) and validates the
// event against the schema.
func ValidateLine(line []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	ev := New("")
	if err := dec.Decode(&ev); err != nil {
		return ev, fmt.Errorf("trace: malformed event line: %w", err)
	}
	var rest json.RawMessage
	if err := dec.Decode(&rest); err != io.EOF {
		return ev, fmt.Errorf("trace: trailing data after event")
	}
	if err := ev.Validate(); err != nil {
		return ev, err
	}
	return ev, nil
}

// ReadAll parses and validates a JSONL trace stream, returning its events
// in order. Blank lines are skipped; the first invalid line aborts with an
// error naming its line number.
func ReadAll(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := ValidateLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
