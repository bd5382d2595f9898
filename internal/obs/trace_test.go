package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanJSONLParentChild(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)

	root := tr.Start("campaign", NoSpan, String("app", "minihdfs"))
	child := tr.Start("pool", root.ID(), Int("depth", 0))
	grand := tr.Start("pooled-run", child.ID())
	grand.SetAttr(Bool("failed", true))
	grand.End()
	child.End()
	root.End()

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Spans are written on End, children first.
	byName := map[string]SpanRecord{}
	ids := map[SpanID]bool{}
	for _, r := range recs {
		byName[r.Name] = r
		ids[r.Span] = true
	}
	if byName["campaign"].Parent != NoSpan {
		t.Errorf("root has parent %d", byName["campaign"].Parent)
	}
	if byName["pool"].Parent != byName["campaign"].Span {
		t.Errorf("pool parent = %d, want %d", byName["pool"].Parent, byName["campaign"].Span)
	}
	if byName["pooled-run"].Parent != byName["pool"].Span {
		t.Errorf("pooled-run parent = %d, want %d", byName["pooled-run"].Parent, byName["pool"].Span)
	}
	for _, r := range recs {
		if r.Parent != NoSpan && !ids[r.Parent] {
			t.Errorf("span %d has dangling parent %d", r.Span, r.Parent)
		}
		if r.DurUS < 0 {
			t.Errorf("span %d has negative duration", r.Span)
		}
	}
	if got := byName["campaign"].Attrs["app"]; got != "minihdfs" {
		t.Errorf("root attr app = %v", got)
	}
	if got := byName["pooled-run"].Attrs["failed"]; got != true {
		t.Errorf("SetAttr after start lost: %v", got)
	}
}

// TestCollectorRecordsMarshalAsTheParsedJSONL: a dist worker used to
// write an item's spans as JSONL, parse them straight back and marshal the
// parsed records into the item result. A collecting tracer hands over the
// records as built, and they must marshal to the very same bytes — for
// every attribute type a span carries.
func TestCollectorRecordsMarshalAsTheParsedJSONL(t *testing.T) {
	tr := NewCollector()
	root := tr.Start("item", NoSpan, String("test", "TestWriteRead"), Int("item", 7))
	child := tr.Start("instance", root.ID(), Float("p", 0.0625), Bool("unsafe", true), Int("trials", 1<<40))
	child.SetAttr(String("verdict", "unsafe"))
	child.End()
	tr.Start("bare", root.ID()).End()
	root.End()
	child.SetAttr(String("late", "dropped")) // after End: the record is out
	recs := tr.Records()
	if len(recs) != 3 || recs[0].Name != "instance" || recs[2].Name != "item" {
		t.Fatalf("collected %+v, want instance, bare, item in the order they ended", recs)
	}
	if _, late := recs[0].Attrs["late"]; late {
		t.Error("an attribute set after End reached the collected record")
	}

	var buf bytes.Buffer
	jsonl := NewTracer(&buf)
	for _, rec := range recs {
		jsonl.Emit(rec)
	}
	parsed, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("collected records marshal to\n%s\nthe parsed JSONL to\n%s", got, want)
	}
	if NewTracer(&buf).Records() != nil {
		t.Error("a JSONL tracer holds records")
	}
}

// A JSONL tracer writes each record as json.Marshal writes it, and a
// newline: attributes of every kind, the float formats json switches
// between, keys that need escapes, and a value outside the Attr kinds.
func TestTraceLineIsMarshal(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	recs := []SpanRecord{
		{Span: 1, Name: "bare"},
		{Span: 2, Parent: 1, Name: "item <&>", StartUS: -3, DurUS: 1 << 40, Attrs: map[string]any{
			"app": "minihdfs", "item": int64(-7), "p": 0.0625, "tiny": 1e-9, "huge": 1e21, "zero": 0.0,
			"unsafe": true, "ok": false, "\u00e9\n\"": "\u2028", "dur": time.Second,
		}},
		{Span: 3, Name: "empty attrs", Attrs: map[string]any{}},
	}
	var want []byte
	for _, rec := range recs {
		tr.Emit(rec)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace lines\n%s\njson.Marshal gives\n%s", buf.Bytes(), want)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	s := tr.Start("x", NoSpan)
	s.End()
	s.End()
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("double End wrote %d records", len(recs))
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.Start("root", NoSpan)
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := tr.Start("child", root.ID(), Int("i", int64(i)))
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n+1 {
		t.Fatalf("got %d records, want %d", len(recs), n+1)
	}
	seen := map[SpanID]bool{}
	for _, r := range recs {
		if seen[r.Span] {
			t.Fatalf("duplicate span id %d", r.Span)
		}
		seen[r.Span] = true
	}
}

func TestProgressRenders(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	// The line is the campaign snapshot: the registry's tallies for the
	// app, relative to their values when its campaign started.
	o := New()
	o.Status = NewStatus()
	o.Progress = NewProgress(w, 10*time.Millisecond)
	o.GaugeAdd(MInstancesTotal, 7, "app", "minihdfs") // an earlier campaign's
	o.Event(EvCampaignStart, String("app", "minihdfs"))
	o.GaugeAdd(MInstancesTotal, 10, "app", "minihdfs")
	o.GaugeAdd(MInstancesDone, 4, "app", "minihdfs")
	o.CounterAdd(MExecutions, 123, "app", "minihdfs", "arm", "hetero", "outcome", "pass")
	o.Event(EvItemComplete, String("app", "minihdfs"), Int("item", 0), Int("unsafe", 1))
	time.Sleep(30 * time.Millisecond)
	o.Event(EvCampaignFinish, String("app", "minihdfs"), Float("elapsed_s", 0.03))

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "4/10 instances") {
		t.Errorf("missing done/total in %q", out)
	}
	if !strings.Contains(out, "unsafe=1") {
		t.Errorf("missing verdict tally in %q", out)
	}
	if !strings.Contains(out, "done") {
		t.Errorf("missing final line in %q", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
