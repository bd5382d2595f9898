package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestEventLogConcurrentEmitters hammers one EventLog from many
// goroutines and asserts the output is still one well-formed JSONL
// stream: every record parses, nothing interleaves mid-line, nothing is
// lost. This is the -race guarantee the campaign and coordinator rely
// on when they emit from worker sessions and the merge path at once.
func TestEventLogConcurrentEmitters(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLog(&buf)

	const emitters = 8
	const perEmitter = 200
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				log.Emit(EvItemDispatch,
					String("app", "fake"),
					Int("item", int64(i)),
					String("worker", fmt.Sprintf("w%d", e)))
			}
		}(e)
	}
	wg.Wait()

	recs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(recs) != emitters*perEmitter {
		t.Fatalf("got %d records, want %d", len(recs), emitters*perEmitter)
	}
	for i, r := range recs {
		if r.Event != EvItemDispatch {
			t.Fatalf("record %d: event %q", i, r.Event)
		}
		if r.TimeUS < 0 {
			t.Fatalf("record %d: negative timestamp %d", i, r.TimeUS)
		}
		if r.Attrs["app"] != "fake" {
			t.Fatalf("record %d: attrs %v", i, r.Attrs)
		}
	}
	// Timestamps are stamped under the encoder lock, so the stream is
	// time-ordered even with concurrent emitters.
	for i := 1; i < len(recs); i++ {
		if recs[i].TimeUS < recs[i-1].TimeUS {
			t.Fatalf("timestamps regress at record %d: %d then %d", i, recs[i-1].TimeUS, recs[i].TimeUS)
		}
	}
}

// TestEventLogNilSafety mirrors the package convention: a nil log, a
// nil observer, and an observer without an event log all no-op.
func TestEventLogNilSafety(t *testing.T) {
	var log *EventLog
	log.Emit(EvCampaignStart, String("app", "x")) // must not panic

	var o *Observer
	o.Event(EvCampaignStart, String("app", "x"))

	o = New()
	o.Event(EvCampaignStart, String("app", "x")) // Events and Status nil
	if cs := o.Campaign(); cs != (CampaignStatus{}) {
		t.Fatalf("Campaign() on an observer without a status tracker: %+v", cs)
	}
}

// TestEventLogAttrs round-trips the attr constructors through JSON.
func TestEventLogAttrs(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	log.Emit(EvVerdict,
		String("param", "dfs.checksum.type"),
		Int("item", 7),
		Float("p", 0.0625),
		Bool("stored", true))
	recs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	a := recs[0].Attrs
	if a["param"] != "dfs.checksum.type" {
		t.Errorf("param attr: %v", a["param"])
	}
	// JSON numbers decode as float64.
	if a["item"] != float64(7) {
		t.Errorf("item attr: %v", a["item"])
	}
	if a["p"] != 0.0625 {
		t.Errorf("p attr: %v", a["p"])
	}
	if a["stored"] != true {
		t.Errorf("stored attr: %v", a["stored"])
	}
}

// TestEventLogLineIsEncoders holds Emit's line to json.Encoder's bytes of
// the same record, for attributes of every kind an emitter passes: HTML
// characters and escapes, integers and floats in each of json's formats,
// bools, and a slice, which the codec leaves to json.Marshal.
func TestEventLogLineIsEncoders(t *testing.T) {
	t.Parallel()
	attrs := []Attr{
		String("msg", "<a href=\"x\">&amp;</a>\t\n \x01\xff"),
		String("<key>", "&"),
		Int("min", math.MinInt64), Int("max", math.MaxInt64), Int("zero", 0),
		Float("half", 0.5), Float("tiny", 1e-7), Float("huge", 1e21), Float("neg", -123.456),
		Bool("yes", true), Bool("no", false),
		{Key: "tests", Value: []string{"TestA", "Test<B>"}},
	}
	var buf bytes.Buffer
	NewEventLog(&buf).Emit(EvVerdict, attrs...)
	var stamp struct {
		TimeUS int64 `json:"t_us"`
	}
	if err := json.Unmarshal(buf.Bytes(), &stamp); err != nil {
		t.Fatal(err)
	}
	rec := EventRecord{TimeUS: stamp.TimeUS, Event: EvVerdict, Attrs: make(map[string]any)}
	for _, a := range attrs {
		rec.Attrs[a.Key] = a.Value
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("Emit wrote\n%s\njson.Encoder writes\n%s", buf.Bytes(), want.Bytes())
	}
}
