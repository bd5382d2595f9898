package canonjson_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// seedResult is a result frame as a traced worker sends it: a verdict with
// its evidence, and a span fragment whose attributes are of every kind.
func seedResult() dist.Msg {
	ev := &forensics.Evidence{App: "miniyarn", Test: "TestSubmit", Instance: "RM(a)/NM(b)", Param: "yarn.x",
		Seed: -7, Round: 1, Failed: true, Msg: "expected <ok> & got \"fail\"\n",
		Assign:     []forensics.KV{{Entity: "NodeManager", Index: 1, Param: "yarn.x", Value: "b"}},
		Arms:       []forensics.Arm{{Name: "hetero", Seed: 3, Failed: true}, {Name: "homoA", Seed: 4, Digest: "abc", Cached: true}},
		HeteroFail: 2, HomoPass: 4, Log: []string{"started", "\ttab "}, LogDroppedBytes: 10,
		Reads: []agent.ReadEvent{{Entity: "ResourceManager", Param: "yarn.x", Value: "a", Found: true, Callsite: "rm.go:10"},
			{Entity: "uncertain", Index: 2, Param: "yarn.y", Overridden: true}},
		FirstDivergent: -1, Repro: "zebraconf -mode run -app miniyarn"}
	res := &campaign.ItemResult{ID: 3, Test: "TestSubmit", Instances: 2, Executions: 9, ExecutionsSaved: 1,
		ReachableParams: []string{"yarn.x"}, Coverage: []string{"yarn.x", "yarn.y"},
		Verdicts: []campaign.InstanceVerdict{
			{Instance: "RM(a)/NM(b)", Param: "yarn.x", Verdict: "unsafe", FirstTrialSignal: true, PValue: 0.0015625,
				Rounds: 2, Trials: 8, StopReason: "convicted", HeteroMsg: "boom", Evidence: ev},
			{Instance: "RM(b)/NM(a)", Param: "yarn.x", Verdict: "safe", PValue: 1},
		}}
	spans := []obs.SpanRecord{
		{Span: 1, Name: "instance", StartUS: 5, DurUS: 120,
			Attrs: map[string]any{"param": "yarn.x", "trials": int64(8), "p": 0.25, "unsafe": true}},
		{Span: 2, Parent: 1, Name: "round", DurUS: 3},
	}
	return dist.Msg{Type: dist.MsgResult, Result: res, Spans: spans}
}

// seedFrames is a frame of every type a session carries and a record of
// every journal kind, as json.Marshal writes them, two lines json
// refuses, and an older worker's heartbeat.
func seedFrames(tb testing.TB) [][]byte {
	line := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	result := seedResult()
	run := dist.Msg{Type: dist.MsgRun, Item: &campaign.WorkItem{ID: 3, Test: "TestSubmit", PredSeconds: 0.5,
		ForceParams: []string{"yarn.z"}, PreRun: testgen.PreRun{Test: "TestSubmit", Report: agent.Report{
			NodesStarted: map[string]int{"ResourceManager": 1, "NodeManager": 2},
			Usage: map[string]map[string]bool{"NodeManager": {"yarn.x": true, "yarn.y": true},
				"UnitTest": {"yarn.x": true}},
			UncertainParams: []string{"yarn.y"}, TotalConfs: 4, SharedConf: true, UsedConf: true}}}}
	init := dist.Msg{Type: dist.MsgInit, App: "miniyarn", Config: &dist.Config{MaxPool: 8, Params: []string{"yarn.x"},
		Seed: 1, Overrides: map[string]string{"yarn.x": "b"}, EvidenceMax: -1, Parallel: 1,
		TraceItems: true, HeartbeatMS: 1000}}
	frames := [][]byte{
		line(result), line(run), line(init),
		// A heartbeat, which workers no longer send: the bytes an older
		// worker wrote.
		[]byte(`{"type":"heartbeat"}`),
		line(dist.Msg{Type: dist.MsgReady, PID: 9}),
		line(dist.Msg{Type: dist.MsgReady, PID: 9, Error: "no such app"}),
		line(dist.Record{Kind: dist.KindHeader, App: "miniyarn", Seed: 1, Items: 13}),
		line(dist.Record{Kind: dist.KindDone, Item: 3, Test: "TestSubmit", Result: result.Result}),
		line(dist.Record{Kind: dist.KindGiveUp, Item: 4, Test: "TestHang", Reason: "corrupt frame"}),
	}
	// A NaN p-value has no JSON form: neither json nor the codec reads it.
	nan := strings.Replace(string(frames[0]), `"p_value":0.0015625`, `"p_value":NaN`, 1)
	// An older worker's heartbeat carries a health snapshot, an unknown
	// field now: off the fast path, and read as json reads it.
	legacyBeat := `{"type":"heartbeat","pid":9,"hb":{"inflight":[1,3],"executions":40,"goroutines":12,"heap_bytes":8589934592}}`
	return append(frames, []byte(nan), []byte(`{"type":"result","result":{"id":1,"test":"T","verdicts":[{"p_value":1e400}]}}`),
		[]byte(legacyBeat))
}

// checkFrame holds the codec to encoding/json on data decoded as a T: the
// fast path either declines or gives json's value, and never accepts what
// json refuses; Decode gives json's value and error; what json decodes,
// Append writes as json.Marshal does; and a value decoded from a buffer
// survives the buffer's reuse for the next frame.
func checkFrame[T any](t *testing.T, data, next []byte) {
	var want T
	wantErr := json.Unmarshal(data, &want)
	var fast T
	if canonjson.Fast(data, &fast, new(canonjson.Interner)) {
		if wantErr != nil {
			t.Fatalf("fast path accepted %q as %T, json refuses it: %v", data, fast, wantErr)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("fast path decoded %q as %+v, json as %+v", data, fast, want)
		}
	}
	buf := append([]byte(nil), data...)
	in := new(canonjson.Interner)
	var got T
	if err := canonjson.Decode(buf, &got, in); fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%q) = %+v, %v; json gives %+v, %v", data, got, err, want, wantErr)
	}
	// The next frame in the same buffer, as a read loop reuses it.
	buf = append(buf[:0], next...)
	var second T
	_ = canonjson.Decode(buf, &second, in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding the next frame from the same buffer changed %+v", got)
	}
	if wantErr != nil {
		return
	}
	enc, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := canonjson.Append(nil, &want); err != nil || !bytes.Equal(b, enc) {
		t.Fatalf("Append(%+v) = %s, %v; json gives %s", want, b, err, enc)
	}
	// json.Marshal's bytes are canonical. They need not decode to want
	// (an empty slice comes back nil), but to what json makes of them.
	var back, ref T
	if err := json.Unmarshal(enc, &ref); err != nil {
		t.Fatal(err)
	}
	if !canonjson.Fast(enc, &back, nil) || !reflect.DeepEqual(back, ref) {
		t.Fatalf("json's bytes %s left the fast path or decoded as %+v", enc, back)
	}
}

// FuzzDistFrames feeds arbitrary lines to the codec as the coordinator
// reads them, a wire frame (dist.Msg) or a journal record (dist.Record),
// and holds it to encoding/json differentially.
func FuzzDistFrames(f *testing.F) {
	seeds := seedFrames(f)
	for _, s := range seeds {
		f.Add(s)
	}
	next := seeds[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrame[dist.Msg](t, data, next)
		checkFrame[dist.Record](t, data, next)
	})
}

// Every seed frame json.Marshal wrote is read on the fast path.
func TestSeedFramesAreCanonical(t *testing.T) {
	t.Parallel()
	for i, s := range seedFrames(t)[:9] {
		var m dist.Msg
		var r dist.Record
		if !canonjson.Fast(s, &m, nil) && !canonjson.Fast(s, &r, nil) {
			t.Errorf("seed %d left the fast path: %s", i, s)
		}
	}
}
