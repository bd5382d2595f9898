package dist_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/obs"
)

// parentFrame is how a coordinator built before the heartbeat went bare
// reads a frame, as far as a heartbeat goes: its HB health snapshot, nil
// for a beat without one.
type parentFrame struct {
	Type string `json:"type"`
	PID  int    `json:"pid,omitempty"`
	HB   *struct {
		Inflight   []int  `json:"inflight,omitempty"`
		Executions int64  `json:"executions,omitempty"`
		Goroutines int    `json:"goroutines,omitempty"`
		HeapBytes  uint64 `json:"heap_bytes,omitempty"`
	} `json:"hb,omitempty"`
}

// parentBeat is a heartbeat line as that older worker wrote it.
const parentBeat = `{"type":"heartbeat","pid":9,"hb":{"inflight":[1,3],"executions":40,"goroutines":12,"heap_bytes":8589934592}}`

// TestWorkerHeartbeats drives ServeWorker in-process over pipes with
// heartbeats enabled and checks the beat stream: periodic, bare, readable
// by an older coordinator, and interleaved cleanly with the protocol
// traffic.
func TestWorkerHeartbeats(t *testing.T) {
	t.Parallel()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	defer inW.Close()
	defer outR.Close() // unblocks any straggling heartbeat write

	serveDone := make(chan error, 1)
	go func() {
		serveDone <- dist.ServeWorker(inR, outW, apps.ByName)
	}()

	enc := json.NewEncoder(inW)
	cfg := dist.Config{
		Params:      []string{"dfs.bytes-per-checksum"},
		Parallel:    1,
		HeartbeatMS: 20,
	}
	if err := enc.Encode(dist.Msg{Type: dist.MsgInit, App: "minihdfs", Config: &cfg}); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(outR)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	read := func() dist.Msg {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("worker stream ended early: %v", sc.Err())
		}
		var m dist.Msg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad message %q: %v", sc.Text(), err)
		}
		if m.Type == dist.MsgHeartbeat {
			var old parentFrame
			if err := json.Unmarshal(sc.Bytes(), &old); err != nil || old.Type != dist.MsgHeartbeat || old.HB != nil {
				t.Fatalf("heartbeat %q reads as %+v, %v to an older coordinator", sc.Text(), old, err)
			}
			if sc.Text() != `{"type":"heartbeat"}` {
				t.Fatalf("heartbeat %q, want a bare beat", sc.Text())
			}
		}
		return m
	}

	if m := read(); m.Type != dist.MsgReady {
		t.Fatalf("first message %q, want ready", m.Type)
	}

	beats := 0
	deadline := time.After(5 * time.Second)
	for beats < 3 {
		select {
		case <-deadline:
			t.Fatalf("saw only %d heartbeats before timeout", beats)
		default:
		}
		m := read()
		if m.Type != dist.MsgHeartbeat {
			t.Fatalf("unexpected message %q between heartbeats", m.Type)
		}
		beats++
	}

	if err := enc.Encode(dist.Msg{Type: dist.MsgBye}); err != nil {
		t.Fatal(err)
	}
	// Drain remaining heartbeats until the worker exits and the write
	// side is released by our deferred outR.Close().
	go io.Copy(io.Discard, outR)
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("ServeWorker: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit on bye")
	}
}

// TestWorkerHeartbeatsDisabledByDefault: a zero HeartbeatMS config (what
// ConfigFrom produces) must yield a silent worker — the pre-heartbeat
// wire behaviour, which legacy fakes and recorded sessions depend on.
func TestWorkerHeartbeatsDisabledByDefault(t *testing.T) {
	t.Parallel()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	defer inW.Close()
	defer outR.Close()

	go dist.ServeWorker(inR, outW, apps.ByName)

	enc := json.NewEncoder(inW)
	cfg := dist.ConfigFrom(campaign.Options{
		Params: []string{"dfs.bytes-per-checksum"},
		Tests:  []string{"TestWriteRead"},
	})
	if cfg.HeartbeatMS != 0 {
		t.Fatalf("ConfigFrom set HeartbeatMS=%d, want 0", cfg.HeartbeatMS)
	}
	if err := enc.Encode(dist.Msg{Type: dist.MsgInit, App: "minihdfs", Config: &cfg}); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(outR)
	if !sc.Scan() {
		t.Fatalf("no ready: %v", sc.Err())
	}
	// Nothing else may arrive unprompted: read with a deadline goroutine
	// and require silence for several would-be heartbeat periods.
	got := make(chan string, 1)
	go func() {
		if sc.Scan() {
			got <- sc.Text()
		}
	}()
	select {
	case line := <-got:
		t.Fatalf("unprompted message with heartbeats disabled: %s", line)
	case <-time.After(300 * time.Millisecond):
	}
	enc.Encode(dist.Msg{Type: dist.MsgBye})
}

// runHBFakeWorker is the stall-detection fixture: a protocol-level fake
// that heartbeats every 25ms while idle, goes completely silent for
// 600ms when given an item (a worker wedged in a harness), then resumes
// beating and delivers the result. Its beat is parentBeat, an older
// worker's, health snapshot and all. Selected by ZEBRACONF_DIST_HB_FAKE=1
// from TestMain's worker branch.
func runHBFakeWorker() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	var mu sync.Mutex
	write := func(line []byte) {
		mu.Lock()
		os.Stdout.Write(line)
		mu.Unlock()
	}
	send := func(m dist.Msg) {
		b, _ := json.Marshal(m)
		write(append(b, '\n'))
	}
	hb := func() { write([]byte(parentBeat + "\n")) }
	var silent atomic.Bool
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !silent.Load() {
					hb()
				}
			}
		}
	}()
	for sc.Scan() {
		var m dist.Msg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			os.Exit(1)
		}
		switch m.Type {
		case dist.MsgInit:
			send(dist.Msg{Type: dist.MsgReady, PID: os.Getpid()})
			// Beat immediately: the coordinator arms stall detection only
			// after the first heartbeat, and the run dispatch (which
			// silences this fake) follows ready with no gap.
			hb()
		case dist.MsgRun:
			item := *m.Item
			silent.Store(true)
			time.Sleep(600 * time.Millisecond)
			silent.Store(false)
			// An explicit beat before the result pins the recovery
			// ordering the test asserts on.
			hb()
			send(dist.Msg{Type: dist.MsgResult, Result: &campaign.ItemResult{ID: item.ID, Test: item.Test, Executions: 1}})
		case dist.MsgBye:
			close(stop)
			os.Exit(0)
		}
	}
	os.Exit(0)
}

// TestCoordinatorStallDetection runs the silent fake under a 125ms stall
// threshold (five 25ms heartbeats): the coordinator must flag the stall
// (counter, event, Stalls) while still accepting the late result — stalls
// are advisory, not kills. The fake's beats are an older worker's lines,
// so this is also the mixed-binary check: such a beat still counts in
// MHeartbeats and still recovers a stalled worker.
func TestCoordinatorStallDetection(t *testing.T) {
	t.Parallel()
	o := obs.New()
	var events bytes.Buffer
	o.Events = obs.NewEventLog(&events)
	o.Event(obs.EvCampaignStart, obs.String("app", "fake"))

	coord := dist.New(dist.Options{
		App:       "fake",
		Workers:   1,
		WorkerCmd: workerFactory("ZEBRACONF_DIST_HB_FAKE=1"),
		Config:    dist.Config{Parallel: 1, HeartbeatMS: 25},
		Obs:       o,
		Stderr:    os.Stderr,
	}).WithLimits(20*time.Second, 0)
	run, err := coord.Start(obs.NoSpan, 1)
	if err != nil {
		t.Fatal(err)
	}
	run.Submit(campaign.WorkItem{ID: 0, Test: "TestSilent"})
	results, err := run.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != 0 {
		t.Fatalf("results: %+v", results)
	}

	if n := run.Stalls(); n < 1 {
		t.Fatalf("Stalls() = %d, want >= 1", n)
	}
	if n := o.Metrics.CounterValue(obs.MWorkerStalls, "app", "fake"); n < 1 {
		t.Fatalf("%s = %d, want >= 1", obs.MWorkerStalls, n)
	}
	if n := o.Metrics.CounterValue(obs.MWorkerCrashes, "app", "fake"); n != 0 {
		t.Fatalf("stall must not count as a crash; crashes = %d", n)
	}
	if n := o.Metrics.CounterValue(obs.MHeartbeats, "app", "fake"); n < 2 {
		t.Fatalf("%s = %d, want >= 2", obs.MHeartbeats, n)
	}

	recs, err := obs.ReadEvents(&events)
	if err != nil {
		t.Fatal(err)
	}
	var stalledAt, recoveredAt, doneAt = -1, -1, -1
	for i, r := range recs {
		switch r.Event {
		case obs.EvWorkerDone:
			doneAt = i
		case obs.EvWorkerStalled:
			if stalledAt < 0 {
				stalledAt = i
			}
		case obs.EvWorkerRecovered:
			recoveredAt = i
		case obs.EvWorkerCrash:
			t.Fatalf("crash event during a stall-only run: %+v", r)
		}
	}
	if stalledAt < 0 {
		t.Fatal("no worker_stalled event")
	}
	if recoveredAt < stalledAt {
		t.Fatalf("no worker_recovered after worker_stalled (stalled@%d recovered@%d)", stalledAt, recoveredAt)
	}
	if doneAt < recoveredAt {
		t.Fatalf("no worker_done after worker_recovered (recovered@%d done@%d)", recoveredAt, doneAt)
	}
}

// TestCoordinatorHeartbeatHealthy: a worker beating every 50ms is never
// 250ms silent, so never flagged, and every worker's beats are counted.
func TestCoordinatorHeartbeatHealthy(t *testing.T) {
	t.Parallel()
	o := obs.New()

	coord := dist.New(dist.Options{
		App:       "minihdfs",
		Workers:   2,
		WorkerCmd: workerFactory(),
		Config:    dist.Config{Parallel: 1, HeartbeatMS: 50},
		Obs:       o,
		Stderr:    os.Stderr,
	}).WithLimits(60*time.Second, 0)
	app := minihdfs(t)
	opts := subsetOptions(7, o)
	opts.Distributor = coord
	res := campaign.Run(app, opts)
	if len(res.Reported) == 0 {
		t.Fatal("campaign reported nothing")
	}
	if n := o.Metrics.CounterValue(obs.MHeartbeats, "app", "minihdfs"); n < 2 {
		t.Fatalf("%s = %d, want >= 2", obs.MHeartbeats, n)
	}
	if n := o.Metrics.CounterValue(obs.MWorkerStalls, "app", "minihdfs"); n != 0 {
		t.Fatalf("healthy workers flagged stalled %d times", n)
	}
	for _, slot := range []string{"0", "1"} {
		if n := o.Metrics.CounterValue(obs.MHeartbeats, "app", "minihdfs", "worker", slot); n < 1 {
			t.Fatalf("worker %s never heartbeat: %s = %d", slot, obs.MHeartbeats, n)
		}
	}
}
