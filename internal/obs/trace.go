package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"zebraconf/internal/canonjson"
)

// SpanID identifies one span within a trace. The zero value, NoSpan,
// means "no parent" (a root span) and is what nil spans report, so
// instrumented code can pass span.ID() unconditionally.
type SpanID uint64

// NoSpan is the absent-span sentinel.
const NoSpan SpanID = 0

// Attr is one key/value span attribute.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{k, v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{k, v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{k, v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{k, v} }

// SpanRecord is the JSONL schema, one record per line, written when a
// span ends. Children therefore appear before their parents in the
// file; consumers resolve parent IDs after reading the whole trace.
type SpanRecord struct {
	Span    SpanID         `json:"span"`
	Parent  SpanID         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// ForeignSpan is a SpanRecord as another process's tracer wrote it, its
// attributes kept as the bytes of their JSON object: a coordinator
// stitching a worker's trace fragment into its own trace re-identifies
// and rebases each span and writes the attributes out verbatim, never
// decoding them (EmitForeign). Its JSON is SpanRecord's.
type ForeignSpan struct {
	Span    SpanID          `json:"span"`
	Parent  SpanID          `json:"parent,omitempty"`
	Name    string          `json:"name"`
	StartUS int64           `json:"start_us"`
	DurUS   int64           `json:"dur_us"`
	Attrs   json.RawMessage `json:"attrs,omitempty"`
}

// Tracer emits structured spans as JSON lines. Span creation is an
// atomic ID allocation; the writer lock is taken only when a span ends.
type Tracer struct {
	mu sync.Mutex
	// w takes the records out, each encoded into line; a collecting
	// tracer (nil w) keeps them in recs instead.
	w    io.Writer
	line []byte
	recs []SpanRecord
	next atomic.Uint64
	// epoch anchors start_us so traces are relative, compact, and
	// stable under clock redefinition mid-run.
	epoch time.Time
}

// NewTracer returns a tracer writing JSONL records to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, epoch: time.Now()}
}

// NewCollector returns a tracer that keeps its records in memory, for the
// caller that wants the records themselves and would only parse the JSONL
// straight back: a dist worker ships each item's span fragment home
// inside the item result.
func NewCollector() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Records returns what a collecting tracer has recorded so far, in the
// order the spans ended; nil for a tracer that writes JSONL.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recs
}

// write sends one finished record to the tracer's sink.
func (t *Tracer) write(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		t.recs = append(t.recs, rec)
		return
	}
	line, err := canonjson.Append(t.line[:0], &rec)
	t.writeLine(line, err)
}

// writeLine writes a record encoded into line, json.Marshal's bytes, and a
// newline in one call; t.mu is held. Encoding and write errors (e.g. a
// closed file) are deliberately dropped: tracing must never fail the
// campaign.
func (t *Tracer) writeLine(line []byte, err error) {
	if err != nil {
		return
	}
	t.line = append(line, '\n')
	_, _ = t.w.Write(t.line)
}

// Span is one in-flight trace span. A nil *Span is valid: every method
// no-ops and ID() reports NoSpan.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// Start opens a span named name under parent (NoSpan for a root).
func (t *Tracer) Start(name string, parent SpanID, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tr:     t,
		id:     SpanID(t.next.Add(1)),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	if len(attrs) > 0 {
		s.attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			s.attrs[a.Key] = a.Value
		}
	}
	return s
}

// ID reports the span's ID, or NoSpan for a nil span.
func (s *Span) ID() SpanID {
	if s == nil {
		return NoSpan
	}
	return s.id
}

// SetAttr attaches (or overwrites) an attribute before End; after End
// the record is out (and, collected, owns the attribute map), so a late
// attribute is dropped.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, len(attrs))
	}
	for _, a := range attrs {
		s.attrs[a.Key] = a.Value
	}
}

// End closes the span and hands its record to the tracer. Safe to call
// once; later calls no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	rec := SpanRecord{
		Span:    s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.Sub(s.tr.epoch).Microseconds(),
		DurUS:   time.Since(s.start).Microseconds(),
		Attrs:   attrs,
	}
	s.tr.write(rec)
}

// AllocID reserves a fresh span ID without opening a span. Stitching
// uses it: a coordinator folding a worker's trace fragment into its own
// stream must re-identify every foreign span so the IDs cannot collide
// with locally allocated ones.
func (t *Tracer) AllocID() SpanID {
	if t == nil {
		return NoSpan
	}
	return SpanID(t.next.Add(1))
}

// Emit writes a fully resolved record to the trace. The caller owns ID
// and timestamp consistency (use AllocID and SinceEpochUS); encoding
// errors are dropped just like Span.End's.
func (t *Tracer) Emit(rec SpanRecord) {
	if t == nil {
		return
	}
	t.write(rec)
}

// EmitForeign writes a foreign span as Emit writes the SpanRecord it
// decodes to, its attributes' bytes as they are: the same line, when they
// are json.Marshal's bytes of that record's map. An empty object or null
// is left out, as an empty map is. A collecting tracer keeps the record
// with its attributes decoded.
func (t *Tracer) EmitForeign(rec ForeignSpan) {
	if t == nil {
		return
	}
	if a := rec.Attrs; string(a) == "{}" || string(a) == "null" {
		rec.Attrs = nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w != nil {
		line, err := canonjson.Append(t.line[:0], &rec)
		t.writeLine(line, err)
		return
	}
	local := SpanRecord{Span: rec.Span, Parent: rec.Parent, Name: rec.Name, StartUS: rec.StartUS, DurUS: rec.DurUS}
	if rec.Attrs != nil && json.Unmarshal(rec.Attrs, &local.Attrs) != nil {
		return
	}
	t.recs = append(t.recs, local)
}

// SinceEpochUS converts an absolute time to this tracer's epoch-relative
// microseconds, the StartUS base for rebasing foreign span fragments.
func (t *Tracer) SinceEpochUS(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return tm.Sub(t.epoch).Microseconds()
}

// ReadTrace parses a JSONL trace, for tests and tools.
func ReadTrace(r io.Reader) ([]SpanRecord, error) {
	dec := json.NewDecoder(r)
	var out []SpanRecord
	for {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}
