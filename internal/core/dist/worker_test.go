package dist_test

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/obs"
)

// workerSession is the coordinator's half of the protocol, scripted: one
// real ServeWorker running in this process over a pair of pipes.
type workerSession struct {
	t    *testing.T
	enc  *json.Encoder
	dec  *json.Decoder
	done chan error
	in   *io.PipeWriter
	out  *io.PipeReader
}

// startWorkerSession starts the worker and completes the handshake.
func startWorkerSession(t *testing.T, app *harness.App, cfg dist.Config) *workerSession {
	t.Helper()
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	s := &workerSession{t: t, enc: json.NewEncoder(toWorkerW), dec: json.NewDecoder(fromWorkerR),
		done: make(chan error, 1), in: toWorkerW, out: fromWorkerR}
	go func() {
		s.done <- dist.ServeWorker(toWorkerR, fromWorkerW, func(string) (*harness.App, error) { return app, nil })
	}()
	s.send(dist.Msg{Type: dist.MsgInit, App: app.Name, Config: &cfg})
	var ready dist.Msg
	if err := s.dec.Decode(&ready); err != nil || ready.Type != dist.MsgReady || ready.Error != "" {
		t.Fatalf("handshake failed: %+v err %v", ready, err)
	}
	return s
}

func (s *workerSession) send(m dist.Msg) {
	s.t.Helper()
	if err := s.enc.Encode(m); err != nil {
		s.t.Fatal(err)
	}
}

// result reads up to the worker's next item result.
func (s *workerSession) result() campaign.ItemResult {
	s.t.Helper()
	for {
		var m dist.Msg
		if err := s.dec.Decode(&m); err != nil {
			s.t.Fatalf("reading result: %v", err)
		}
		if m.Type == dist.MsgResult {
			return *m.Result
		}
	}
}

// bye ends the session and waits for the worker to return.
func (s *workerSession) bye() {
	s.t.Helper()
	s.send(dist.Msg{Type: dist.MsgBye})
	if err := <-s.done; err != nil {
		s.t.Fatalf("ServeWorker: %v", err)
	}
	s.in.Close()
	s.out.Close()
}

// recordingDistributor keeps the work items a campaign submits and
// executes none of them.
type recordingDistributor struct{ items []campaign.WorkItem }

func (d *recordingDistributor) Begin(obs.SpanID, int)         {}
func (d *recordingDistributor) Submit(item campaign.WorkItem) { d.items = append(d.items, item) }
func (d *recordingDistributor) Drain() []campaign.ItemResult  { return nil }

// TestWorkerBillsAbandonmentToItsOwnItem: a worker runs up to
// Config.Parallel items at once, and an execution that abandons a goroutine
// is billed to the item it belongs to — not to every item in flight, which
// is what a delta of the process-wide counter did. TestBystander is held in
// flight (its first heterogeneous trial waits outside the clock, well inside
// its own timeout) from before TestLeaky starts until after TestLeaky's
// result is in; TestLeaky's first heterogeneous trial never returns within
// its 30 ms timeout and is abandoned.
func TestWorkerBillsAbandonmentToItsOwnItem(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})        // closed once TestLeaky's result is in
	bystanderUp := make(chan struct{}, 1) // TestBystander is executing
	// body reads the parameter on both sides, and the first time they
	// disagree — the first heterogeneous trial of phase 2 — does once.
	body := func(once func()) func(*harness.T) {
		var done atomic.Bool
		return func(t *harness.T) {
			testConf := t.Env.RT.NewConf()
			t.Env.RT.StartInit("Node")
			nodeConf := testConf.RefToClone()
			t.Env.RT.StopInit()
			if nodeConf.Get("word") != testConf.Get("word") && done.CompareAndSwap(false, true) {
				once()
			}
		}
	}
	schema := confkit.NewRegistry().Register(confkit.Param{Name: "word", Kind: confkit.Enum,
		Default: "alpha", Candidates: []string{"alpha", "beta"}})
	app := &harness.App{
		Name:      "leaky",
		Schema:    func() *confkit.Registry { return schema },
		NodeTypes: []string{"Node"},
		Tests: []harness.UnitTest{
			{Name: "TestLeaky", Timeout: 30 * time.Millisecond, Run: body(func() { <-release })},
			{Name: "TestBystander", Run: body(func() { bystanderUp <- struct{}{}; <-release })},
		},
	}
	pre := runner.New(app, runner.Options{})
	item := func(id int) *campaign.WorkItem {
		test := &app.Tests[id]
		return &campaign.WorkItem{ID: id, Test: test.Name, PreRun: pre.PreRun(test)}
	}

	s := startWorkerSession(t, app, dist.Config{Parallel: 2, DisableExecCache: true})
	s.send(dist.Msg{Type: dist.MsgRun, Item: item(1)})
	<-bystanderUp
	s.send(dist.Msg{Type: dist.MsgRun, Item: item(0)})
	leaky := s.result()
	close(release)
	bystander := s.result()
	s.bye()

	if leaky.Test != "TestLeaky" || bystander.Test != "TestBystander" {
		t.Fatalf("results arrived as %s then %s", leaky.Test, bystander.Test)
	}
	if len(leaky.Verdicts) == 0 || len(bystander.Verdicts) == 0 {
		t.Fatalf("items ran no instances: %+v / %+v", leaky, bystander)
	}
	if leaky.LeakedGoroutines != 1 {
		t.Errorf("TestLeaky: LeakedGoroutines = %d, want 1", leaky.LeakedGoroutines)
	}
	if bystander.LeakedGoroutines != 0 {
		t.Errorf("TestBystander was billed %d abandoned goroutine(s) of the item beside it", bystander.LeakedGoroutines)
	}
}
