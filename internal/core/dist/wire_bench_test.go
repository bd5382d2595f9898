package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/obs"
)

// itemCapture is a Distributor that keeps the work items a campaign
// submits and resolves each with an empty result.
type itemCapture struct {
	mu    sync.Mutex
	items []campaign.WorkItem
}

func (c *itemCapture) Begin(obs.SpanID, int) {}

func (c *itemCapture) Submit(item campaign.WorkItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = append(c.items, item)
}

func (c *itemCapture) Drain() []campaign.ItemResult {
	out := make([]campaign.ItemResult, len(c.items))
	for i, it := range c.items {
		out[i] = campaign.ItemResult{ID: it.ID, Test: it.Test}
	}
	return out
}

// largestResultFrame serves every work item of a miniyarn campaign, with
// evidence and item tracing on, through one in-process worker session, and
// returns the largest result frame it sent, newline included.
func largestResultFrame(b *testing.B) []byte {
	app, err := apps.ByName("miniyarn")
	if err != nil {
		b.Fatal(err)
	}
	capture := &itemCapture{}
	opts := campaign.Options{Seed: 1, EvidenceMax: -1, Distributor: capture}
	campaign.Run(app, opts)
	cfg := ConfigFrom(opts)
	cfg.TraceItems, cfg.Parallel = true, 1
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	if err := enc.Encode(Msg{Type: MsgInit, App: app.Name, Config: &cfg}); err != nil {
		b.Fatal(err)
	}
	for i := range capture.items {
		if err := enc.Encode(Msg{Type: MsgRun, Item: &capture.items[i]}); err != nil {
			b.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := ServeWorker(&in, &out, func(string) (*harness.App, error) { return app, nil }); err != nil {
		b.Fatal(err)
	}
	var largest []byte
	for _, line := range bytes.SplitAfter(out.Bytes(), []byte{'\n'}) {
		if len(line) > len(largest) && bytes.HasPrefix(line, []byte(`{"type":"result"`)) {
			largest = line
		}
	}
	if !bytes.Contains(largest, []byte(`"evidence"`)) || !bytes.Contains(largest, []byte(`"spans"`)) {
		b.Fatalf("the largest result frame carries no evidence or no span fragment: %.200s", largest)
	}
	return largest
}

// repeatReader yields one frame n times.
type repeatReader struct {
	frame []byte
	n     int
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := copy(p, r.frame[r.off:])
	if r.off += k; r.off == len(r.frame) {
		r.off = 0
		r.n--
	}
	return k, nil
}

// BenchmarkResultFrameDecode prices what the coordinator pays for one
// result frame: the session's read loop reading the largest result frame
// of a miniyarn campaign, evidence and span fragment included, and
// decoding it into the message it hands on.
func BenchmarkResultFrameDecode(b *testing.B) {
	frame := largestResultFrame(b)
	s := &workerSession{msgs: make(chan Reply, 1), readerDone: make(chan struct{})}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	go s.readLoop(&repeatReader{frame: frame, n: b.N})
	got := 0
	for m := range s.msgs {
		if m.Result == nil {
			b.Fatal("a result frame decoded without its result")
		}
		got++
	}
	if got != b.N || s.readErr != "" {
		b.Fatalf("read %d of %d frames (%s)", got, b.N, s.readErr)
	}
}
