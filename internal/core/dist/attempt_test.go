package dist_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/obs"
)

// The test below ends attempts by a result and by an item deadline, which
// charges the overdue item alone, with workers whose every answer is
// scripted.

// lateAnswer is how long an "ok" worker takes to answer a "TestLate…" item.
const lateAnswer = 3 * time.Second

// runAttemptFake is the scripted worker: role "hang" never answers a run,
// "garble" answers one with a line that is not JSON, and "ok" answers at
// once — except an item
// whose test is named "TestLate…", which it answers lateAnswer later,
// while still taking other runs. ZEBRACONF_DIST_READY_MS delays ready.
func runAttemptFake(role string) {
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
			case role == "garble":
				mu.Lock()
				os.Stdout.WriteString("result: not json\n")
				mu.Unlock()
			case role == "hang":
			case strings.HasPrefix(m.Item.Test, "TestLate"):
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

// scriptedWorkers builds the n-th spawned worker with roles[n], "ok" past
// the list. The second spawn answers ready 300 ms late, so the first takes
// the first items.
func scriptedWorkers(roles ...string) func() *exec.Cmd {
	var spawns atomic.Int32
	return func() *exec.Cmd {
		n := int(spawns.Add(1)) - 1
		role := "ok"
		if n < len(roles) {
			role = roles[n]
		}
		env := []string{"ZEBRACONF_DIST_ATTEMPT=" + role}
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

// TestTimeoutChargesOnlyTheSuspect: one worker holds an overdue item and a
// bystander dispatched later when its item deadline fires. The suspect
// alone is charged (one item_retried), the bystander requeues for free,
// and every item gets one result.
func TestTimeoutChargesOnlyTheSuspect(t *testing.T) {
	t.Parallel()
	o, tap, trace := tappedObserver()
	coord := dist.New(dist.Options{
		App:         "fake",
		Workers:     2,
		WorkerCmd:   scriptedWorkers("ok", "hang"),
		Config:      dist.Config{Parallel: 3},
		ItemRetries: dist.DefaultItemRetries,
		Obs:         o,
	}).WithLimits(4*time.Second, 0)
	run, err := coord.Start(obs.NoSpan, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The first worker fills its three places with items it answers only
	// after lateAnswer, so what follows goes to the hanging second one.
	for id, test := range []string{"TestLateA", "TestLateB", "TestLateC"} {
		run.Submit(campaign.WorkItem{ID: id, Test: test})
	}
	tap.await(t, obs.EvWorkerReady, 2)
	const suspect, bystander = 3, 4
	run.Submit(campaign.WorkItem{ID: suspect, Test: "TestSuspect"})
	tap.await(t, obs.EvItemDispatch, 4)
	time.Sleep(time.Second) // so that only the suspect is overdue
	run.Submit(campaign.WorkItem{ID: bystander, Test: "TestBystander"})
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
}

// TestCorruptFrameIsNamed: a worker that answers a run with a line that is
// not JSON has lost its framing, and the session ends on it. The loss is
// named a corrupt frame, not a crash, in the item's retry, its give-up and
// the worker crash count.
func TestCorruptFrameIsNamed(t *testing.T) {
	t.Parallel()
	o, tap, _ := tappedObserver()
	coord := dist.New(dist.Options{
		App:         "fake",
		Workers:     1,
		WorkerCmd:   scriptedWorkers("garble", "garble"),
		Config:      dist.Config{Parallel: 1},
		ItemRetries: 1,
		Obs:         o,
	})
	run, err := coord.Start(obs.NoSpan, 1)
	if err != nil {
		t.Fatal(err)
	}
	run.Submit(campaign.WorkItem{ID: 0, Test: "TestGarbled"})
	results, err := run.Drain()
	if err != nil {
		t.Fatal(err)
	}
	const want = "abandoned after 2 attempts (last failure: corrupt frame)"
	if len(results) != 1 || !results[0].Quarantined || results[0].Error != want {
		t.Fatalf("results %+v, want one given up with %q", results, want)
	}
	retried := tap.events(t, obs.EvItemRetried)
	if len(retried) != 1 || retried[0].Attrs["reason"] != "corrupt frame" {
		t.Fatalf("item_retried events %+v, want one, for a corrupt frame", retried)
	}
	if n := o.Metrics.CounterValue(obs.MWorkerCrashes, "app", "fake", "reason", "corrupt frame"); n != 2 {
		t.Fatalf("workers lost to a corrupt frame = %d, want 2", n)
	}
}
