package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/obs"
)

// FuzzWorkerFrames feeds arbitrary NDJSON lines to both read loops of the
// protocol — a worker's, after a valid init, and the coordinator's session
// reader: each may refuse a line and end the session, never panic, never
// block. The seeds are the frames a session carries, a run frame for a real
// (tiny) test among them, so the worker also executes what it is sent.
func FuzzWorkerFrames(f *testing.F) {
	schema := confkit.NewRegistry().Register(confkit.Param{Name: "word", Kind: confkit.Enum,
		Default: "alpha", Candidates: []string{"alpha", "beta"}})
	app := &harness.App{
		Name:      "fuzzed",
		Schema:    func() *confkit.Registry { return schema },
		NodeTypes: []string{"Node"},
		Tests: []harness.UnitTest{{Name: "TestWord", Run: func(t *harness.T) {
			testConf := t.Env.RT.NewConf()
			t.Env.RT.StartInit("Node")
			nodeConf := testConf.RefToClone()
			t.Env.RT.StopInit()
			if nodeConf.Get("word") != testConf.Get("word") {
				t.Fatalf("the node reads %q", nodeConf.Get("word"))
			}
		}}},
	}
	resolve := func(string) (*harness.App, error) { return app, nil }
	line := func(m Msg) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	run := line(Msg{Type: MsgRun, Item: &campaign.WorkItem{Test: "TestWord",
		PreRun: runner.New(app, runner.Options{}).PreRun(&app.Tests[0])}})
	// The envelope has lost fields (warm, pred_trials, three of the config):
	// what an older peer still sends must decode, and so must their absence.
	legacy := []byte(strings.Replace(string(run), `{"type":"run",`, `{"type":"run","warm":true,"pred_trials":3,`, 1))
	var m Msg
	if err := json.Unmarshal(legacy, &m); err != nil || m.Item == nil || m.Item.Test != "TestWord" {
		f.Fatalf("a run frame with retired fields decodes to %+v, %v", m, err)
	}
	if err := json.Unmarshal([]byte(`{"type":"init","config":{"no_shared_cache":true,"disk_cache_dir":"/x","shared_persistent":true,"seed":7}}`), &m); err != nil || m.Config.Seed != 7 {
		f.Fatalf("an init frame with retired config fields decodes to %+v, %v", m.Config, err)
	}
	// An older coordinator sends seq_margin: a worker reads its init as
	// the same frame without it.
	current := line(Msg{Type: MsgInit, App: app.Name, Config: &Config{Seed: 7, Parallel: 2}})
	margined := bytes.Replace(current, []byte(`"seed":7,`), []byte(`"seed":7,"seq_margin":50,`), 1)
	var withMargin, without Msg
	if err := canonjson.Decode(margined, &withMargin, nil); err != nil || canonjson.Decode(current, &without, nil) != nil ||
		bytes.Equal(margined, current) || !reflect.DeepEqual(withMargin, without) {
		f.Fatalf("an init frame with seq_margin decodes to %+v, %v; without it to %+v", withMargin.Config, err, without.Config)
	}
	// A trace fragment rides the envelope; an older worker put it inside
	// the result, where it is now an unknown field and ignored.
	frag := []obs.SpanRecord{{Span: 1, Name: "instance", DurUS: 5}, {Span: 2, Parent: 1, Name: "round"}}
	traced := line(Msg{Type: MsgResult, Result: &campaign.ItemResult{Test: "TestWord", Executions: 3}, Spans: frag})
	legacyTraced := []byte(`{"type":"result","result":{"id":0,"test":"TestWord","executions":3,` +
		`"spans":[{"span":1,"name":"instance","start_us":0,"dur_us":5}]}}` + "\n")
	m = Msg{}
	if err := json.Unmarshal(legacyTraced, &m); err != nil || m.Result == nil || m.Result.Executions != 3 || m.Spans != nil {
		f.Fatalf("a result frame with a result-level fragment decodes to %+v, %v", m, err)
	}
	for _, seed := range [][]byte{
		run, legacy, bytes.Repeat(run, 3),
		line(Msg{Type: MsgRun, Item: &campaign.WorkItem{ID: 1, Test: "TestGone"}}),
		line(Msg{Type: MsgQuarantine, Param: "word"}),
		line(Msg{Type: MsgBye}),
		line(Msg{Type: MsgReady, PID: 1}),
		line(Msg{Type: MsgResult, Result: &campaign.ItemResult{Test: "TestWord", Executions: 3}}),
		traced, legacyTraced, margined,
		// Older workers' heartbeats, bare and with the health snapshot
		// that is an unknown field now: workers no longer send either.
		[]byte(`{"type":"heartbeat"}` + "\n"),
		[]byte(`{"type":"heartbeat","pid":1,"hb":{"inflight":[0],"executions":3}}` + "\n"),
		[]byte("{\"type\":\"run\"}\n"), []byte("{}\n"), []byte("not json\n"), []byte(`{"type":"run","item":{"prerun":`),
		// Frames out of place: a second init, a ready that failed, a
		// quarantine naming nothing.
		line(Msg{Type: MsgInit, App: app.Name, Config: &Config{}}),
		line(Msg{Type: MsgReady, PID: 1, Error: "no such app"}),
		line(Msg{Type: MsgQuarantine}),
	} {
		f.Add(seed)
	}

	init := line(Msg{Type: MsgInit, App: app.Name, Config: &Config{Parallel: 2}})
	f.Fuzz(func(t *testing.T, frames []byte) {
		ended := make(chan struct{})
		go func() {
			defer close(ended)
			// The worker: init, the frames, EOF. Its error is its to choose.
			_ = ServeWorker(io.MultiReader(bytes.NewReader(init), bytes.NewReader(frames)), io.Discard, resolve)
			// The coordinator's reader of one session.
			s := &workerSession{msgs: make(chan Reply), readerDone: make(chan struct{})}
			go s.readLoop(bytes.NewReader(frames))
			for range s.msgs {
			}
			<-s.readerDone
		}()
		select {
		case <-ended:
		case <-time.After(20 * time.Second):
			t.Fatal("a read loop is still blocked on these frames")
		}
	})
}
