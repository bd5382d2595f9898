package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/canonjson"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/obs"
)

// parentStitch is the coordinator's stitch as it was before attributes
// stayed bytes, kept as the reference: the fragment decoded into maps,
// each span re-identified, re-parented and rebased, and written by Emit.
// base is the dispatch instant on the tracer's clock.
func parentStitch(tr *obs.Tracer, item obs.SpanID, base int64, frag []obs.SpanRecord) {
	ids := make(map[obs.SpanID]obs.SpanID, len(frag))
	for _, rec := range frag {
		ids[rec.Span] = tr.AllocID()
	}
	for _, rec := range frag {
		rec.Span = ids[rec.Span]
		if p, ok := ids[rec.Parent]; ok {
			rec.Parent = p
		} else {
			rec.Parent = item
		}
		rec.StartUS += base
		tr.Emit(rec)
	}
}

// tracedResultFrames serves every minimr test to a traced worker, as a
// -workers campaign dispatches it, and returns the result frames it
// writes.
func tracedResultFrames(t *testing.T) [][]byte {
	t.Helper()
	app, err := apps.ByName("minimr")
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	send := func(m Msg) {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		in.Write(append(b, '\n'))
	}
	send(Msg{Type: MsgInit, App: app.Name, Config: &Config{Seed: 1, Parallel: 2, EvidenceMax: -1, TraceItems: true}})
	pre := runner.New(app, runner.Options{})
	for i := range app.Tests {
		send(Msg{Type: MsgRun, Item: &campaign.WorkItem{ID: i, Test: app.Tests[i].Name, PreRun: pre.PreRun(&app.Tests[i])}})
	}
	send(Msg{Type: MsgBye})
	var out bytes.Buffer
	if err := ServeWorker(&in, &out, apps.ByName); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"type":"result"`)) {
			frames = append(frames, bytes.Clone(sc.Bytes()))
		}
	}
	if len(frames) != len(app.Tests) {
		t.Fatalf("%d result frames for %d items", len(frames), len(app.Tests))
	}
	return frames
}

// A traced worker's result frame is json.Marshal's bytes of a Msg whose
// span attributes are maps: the bytes a coordinator of any version reads.
// Decoded with its numbers kept as their text, it marshals back to itself.
func TestTracedResultFrameIsMsgBytes(t *testing.T) {
	t.Parallel()
	spans := 0
	for _, frame := range tracedResultFrames(t) {
		dec := json.NewDecoder(bytes.NewReader(frame))
		dec.UseNumber()
		var m Msg
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		spans += len(m.Spans)
		back, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, frame) {
			t.Fatalf("the worker wrote\n%s\njson.Marshal writes\n%s", frame, back)
		}
	}
	if spans == 0 {
		t.Fatal("the traced worker sent no span")
	}
}

// Stitching a fragment whose attributes stay bytes writes every trace line
// the parent's stitch wrote from the fragment decoded into maps, but for
// the integers past 2^53 the parent's float64s rounded: a line holding
// one is the parent's stitch of the fragment decoded with its numbers
// kept exact.
func TestStitchedLinesMatchParent(t *testing.T) {
	t.Parallel()
	lines, rounded := 0, 0
	for _, frame := range tracedResultFrames(t) {
		got, want, exact := stitchBoth(t, frame)
		for i := range got {
			if got[i] != exact[i] {
				t.Fatalf("stitched\n%s\nthe parent's stitch of exact numbers writes\n%s", got[i], exact[i])
			}
			if got[i] != want[i] {
				rounded++
			}
		}
		lines += len(got)
	}
	if lines == 0 || rounded == lines {
		t.Fatalf("%d lines stitched, %d of them with an integer the parent rounded", lines, rounded)
	}
	t.Logf("%d lines stitched, %d of them with an integer the parent rounded", lines, rounded)
}

// stitchBoth stitches a result frame's fragment three ways, each into a
// fresh tracer under an item span of the same ID, and returns the lines
// each wrote: got, its attributes kept as bytes, through the coordinator;
// want, decoded into maps as the parent decoded it, through parentStitch;
// exact, decoded into maps with every number kept as its text, through
// parentStitch.
func stitchBoth(t *testing.T, frame []byte) (got, want, exact []string) {
	t.Helper()
	var raw Reply
	var decoded, numbers Msg
	if err := canonjson.Decode(frame, &raw, nil); err != nil {
		t.Fatal(err)
	}
	if err := canonjson.Decode(frame, &decoded, nil); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(frame))
	dec.UseNumber()
	if err := dec.Decode(&numbers); err != nil {
		t.Fatal(err)
	}
	var bufs [3]strings.Builder
	var trs [3]*obs.Tracer
	var items [3]*obs.Span
	for i := range trs {
		trs[i] = obs.NewTracer(&bufs[i])
		items[i] = trs[i].Start("item", obs.NoSpan)
	}
	dispatched := time.Now()
	r := &Run{o: &obs.Observer{Tracer: trs[0]}}
	r.stitchSpans(items[0], dispatched, raw.Spans)
	base := trs[0].SinceEpochUS(dispatched)
	parentStitch(trs[1], items[1].ID(), base, decoded.Spans)
	parentStitch(trs[2], items[2].ID(), base, numbers.Spans)
	split := func(b *strings.Builder) []string {
		lines := strings.SplitAfter(b.String(), "\n")
		return lines[:len(lines)-1] // the empty text after the last newline
	}
	return split(&bufs[0]), split(&bufs[1]), split(&bufs[2])
}

// An integer attribute past 2^53 is stitched as the worker wrote it; the
// parent's map held it as a float64, and wrote the nearest one.
func TestStitchKeepsLargeIntegersExact(t *testing.T) {
	t.Parallel()
	frame := []byte(`{"type":"result","result":{"id":0,"test":"T"},"spans":[{"span":1,"name":"instance","start_us":5,"dur_us":7,"attrs":{"n":9007199254740993}}]}`)
	got, want, _ := stitchBoth(t, frame)
	if !strings.Contains(got[0], `"attrs":{"n":9007199254740993}`) || !strings.Contains(want[0], `"attrs":{"n":9007199254740992}`) {
		t.Fatalf("stitched %s; the parent's stitch wrote %s", got[0], want[0])
	}
}
