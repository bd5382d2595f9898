package dist_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/obs"
)

// The tests below end an attempt every way the coordinator can — a result,
// a crash of the worker holding it, a timeout of another item on its
// worker, the end of the run — with workers whose every answer is
// scripted.

// lateAnswer is how long a "TestLate…" item's first claimant takes.
const lateAnswer = 3 * time.Second

// runAttemptFake is the scripted worker: role "hang" never answers a run,
// "crash" exits at its first, and "ok" answers at once — except that the
// first process to claim an item whose test is named "TestLate…" (an
// O_EXCL file in ZEBRACONF_DIST_FAKE_DIR) answers it lateAnswer later,
// while still taking other runs. ZEBRACONF_DIST_READY_MS delays ready.
func runAttemptFake(role string) {
	dir := os.Getenv("ZEBRACONF_DIST_FAKE_DIR")
	readyMS, _ := time.ParseDuration(os.Getenv("ZEBRACONF_DIST_READY_MS") + "ms")
	var mu sync.Mutex
	enc := json.NewEncoder(os.Stdout)
	send := func(m dist.Msg) {
		mu.Lock()
		defer mu.Unlock()
		enc.Encode(m)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var m dist.Msg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			os.Exit(1)
		}
		switch m.Type {
		case dist.MsgInit:
			time.Sleep(readyMS)
			send(dist.Msg{Type: dist.MsgReady, PID: os.Getpid()})
		case dist.MsgRun:
			res := dist.Msg{Type: dist.MsgResult, Result: &campaign.ItemResult{ID: m.Item.ID, Test: m.Item.Test, Executions: 1}}
			switch {
			case role == "hang":
			case role == "crash":
				os.Exit(1)
			case strings.HasPrefix(m.Item.Test, "TestLate") && claimFirst(dir, m.Item.ID):
				time.AfterFunc(lateAnswer, func() { send(res) })
			default:
				send(res)
			}
		case dist.MsgBye:
			os.Exit(0)
		}
	}
	os.Exit(0)
}

func claimFirst(dir string, id int) bool {
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("late%d", id)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		f.Close()
	}
	return err == nil
}

// scriptedWorkers builds the n-th spawned worker with roles[n], "ok" past
// the list. The second spawn answers ready 300 ms late, so the first takes
// the first items.
func scriptedWorkers(dir string, roles ...string) func() *exec.Cmd {
	var spawns atomic.Int32
	return func() *exec.Cmd {
		n := int(spawns.Add(1)) - 1
		role := "ok"
		if n < len(roles) {
			role = roles[n]
		}
		env := []string{"ZEBRACONF_DIST_ATTEMPT=" + role, "ZEBRACONF_DIST_FAKE_DIR=" + dir}
		if n == 1 {
			env = append(env, "ZEBRACONF_DIST_READY_MS=300")
		}
		return workerFactory(env...)()
	}
}

// eventTap is an event log a test can read while the run writes it.
type eventTap struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (e *eventTap) Write(p []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buf.Write(p)
}

// events returns the events so far named name.
func (e *eventTap) events(t *testing.T, name string) []obs.EventRecord {
	t.Helper()
	e.mu.Lock()
	recs, err := obs.ReadEvents(bytes.NewReader(e.buf.Bytes()))
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var out []obs.EventRecord
	for _, r := range recs {
		if r.Event == name {
			out = append(out, r)
		}
	}
	return out
}

// await blocks until n events named name are in.
func (e *eventTap) await(t *testing.T, name string, n int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); len(e.events(t, name)) < n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 30s for %d %s events", n, name)
		}
	}
}

// tappedObserver observes a run into an event tap and a trace buffer.
func tappedObserver() (*obs.Observer, *eventTap, *bytes.Buffer) {
	tap, trace := &eventTap{}, &bytes.Buffer{}
	o := obs.New()
	o.Events = obs.NewEventLog(tap)
	o.Tracer = obs.NewTracer(trace)
	return o, tap, trace
}

// endedAttempts checks that after Drain every dispatched attempt has ended
// — no session still holds one: each item_dispatch has its item span in
// the trace, which is written when the span ends. It returns the item
// spans by item ID, in the order they ended.
func endedAttempts(t *testing.T, tap *eventTap, trace *bytes.Buffer) map[int][]obs.SpanRecord {
	t.Helper()
	spans, err := obs.ReadTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	byItem := make(map[int][]obs.SpanRecord)
	n := 0
	for _, s := range spans {
		if s.Name == "item" {
			id := int(s.Attrs["item"].(float64))
			byItem[id] = append(byItem[id], s)
			n++
		}
	}
	if d := len(tap.events(t, obs.EvItemDispatch)); n != d {
		t.Fatalf("%d item spans ended for %d dispatched attempts", n, d)
	}
	return byItem
}

// TestCrashedCopyLetsThePrimaryBeSpeculatedAgain: the worker holding an
// item's speculative copy crashes. The copy simply goes — nothing is
// charged — and its primary, still straggling, is speculated again on the
// respawned worker, whose copy wins long before the primary answers.
func TestCrashedCopyLetsThePrimaryBeSpeculatedAgain(t *testing.T) {
	t.Parallel()
	o, tap, trace := tappedObserver()
	coord := dist.New(dist.Options{
		App:               "fake",
		Workers:           2,
		WorkerCmd:         scriptedWorkers(t.TempDir(), "ok", "crash"),
		Config:            dist.Config{Parallel: 1},
		SpeculationFactor: 1.0,
		Obs:               o,
	})
	start := time.Now()
	res, err := coord.Execute(obs.NoSpan, []campaign.WorkItem{{ID: 0, Test: "TestLateX", PredSeconds: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Quarantined || res[0].Executions != 1 {
		t.Fatalf("results %+v, want the one item answered", res)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"speculative runs", o.Metrics.CounterValue(obs.MSpeculativeRuns, "app", "fake"), 2},
		{"speculation wins", o.Metrics.CounterValue(obs.MSpeculationWins, "app", "fake"), 1},
		{"crashes", o.Metrics.CounterValue(obs.MWorkerCrashes, "app", "fake", "reason", "crash"), 1},
		{"retries", o.Metrics.CounterValue(obs.MItemRetries, "app", "fake"), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if took := time.Since(start); took >= lateAnswer {
		t.Errorf("took %v: the straggling primary answered first", took)
	}
	ends := map[string]int{}
	for _, s := range endedAttempts(t, tap, trace)[0] {
		ends[fmt.Sprintf("%v %v", s.Attrs["spec"], s.Attrs["end"])]++
	}
	// The crashed copy, the winning copy, the primary abandoned at the end.
	if want := map[string]int{"true crash": 1, "true <nil>": 1, "<nil> abandoned": 1}; fmt.Sprint(ends) != fmt.Sprint(want) {
		t.Errorf("item spans ended as %v, want %v", ends, want)
	}
}

// TestTimeoutChargesOnlyTheSuspect: one worker holds an overdue item, a
// bystander primary dispatched later and a speculative copy when its
// item deadline fires. The suspect alone is charged (one item_retried),
// the bystander requeues for free, the copy ends without a charge, and
// every item gets one result.
func TestTimeoutChargesOnlyTheSuspect(t *testing.T) {
	t.Parallel()
	o, tap, trace := tappedObserver()
	coord := dist.New(dist.Options{
		App:               "fake",
		Workers:           2,
		WorkerCmd:         scriptedWorkers(t.TempDir(), "ok", "hang"),
		Config:            dist.Config{Parallel: 3},
		ItemRetries:       dist.DefaultItemRetries,
		SpeculationFactor: 1.0,
		Obs:               o,
	}).WithLimits(4*time.Second, 0)
	run, err := coord.Start(obs.NoSpan, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The first worker fills its three places with items it answers only
	// after lateAnswer, so what follows goes to the hanging second one.
	for id, test := range []string{"TestLateA", "TestLateB", "TestLateC"} {
		run.Submit(campaign.WorkItem{ID: id, Test: test, PredSeconds: 0.01})
	}
	tap.await(t, obs.EvWorkerReady, 2)
	const suspect, bystander = 3, 4
	// A 100 s prediction keeps the two from ever looking like stragglers.
	run.Submit(campaign.WorkItem{ID: suspect, Test: "TestSuspect", PredSeconds: 100})
	tap.await(t, obs.EvItemDispatch, 4)
	time.Sleep(time.Second) // so that only the suspect is overdue
	// The last submission lets the hanging worker speculate one of the
	// first worker's late items into its third place.
	run.Submit(campaign.WorkItem{ID: bystander, Test: "TestBystander", PredSeconds: 100})
	results, err := run.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results, want 5", len(results))
	}
	for i, r := range results {
		if r.ID != i || r.Quarantined {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	retried := tap.events(t, obs.EvItemRetried)
	if len(retried) != 1 || retried[0].Attrs["item"] != float64(suspect) || retried[0].Attrs["reason"] != "timeout" {
		t.Fatalf("item_retried events %+v, want one, for the suspect", retried)
	}
	if n := o.Metrics.CounterValue(obs.MWorkerCrashes, "app", "fake", "reason", "timeout"); n != 1 {
		t.Fatalf("timeout kills = %d, want 1", n)
	}
	if n := o.Metrics.CounterValue(obs.MSpeculativeRuns, "app", "fake"); n != 1 {
		t.Fatalf("speculative runs = %d, want 1", n)
	}
	spans := endedAttempts(t, tap, trace)
	firstEnd := func(id int) any {
		if len(spans[id]) == 0 {
			t.Fatalf("item %d has no span", id)
		}
		return spans[id][0].Attrs["end"]
	}
	if e := firstEnd(suspect); e != "timeout" {
		t.Errorf("suspect's first attempt ended %v, want timeout", e)
	}
	if e := firstEnd(bystander); e != "requeued" {
		t.Errorf("bystander's first attempt ended %v, want requeued", e)
	}
	copies := 0
	for id := 0; id < 3; id++ {
		for _, s := range spans[id] {
			if s.Attrs["spec"] == true {
				copies++
				if s.Attrs["end"] != "requeued" {
					t.Errorf("the copy of item %d ended %v, want requeued", id, s.Attrs["end"])
				}
			}
		}
	}
	if copies != 1 {
		t.Errorf("%d copies in the trace, want 1", copies)
	}
}
