package dist_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/obs"
)

// runFakeWorker speaks the wire protocol without running any tests, so
// coordinator-side scheduling mechanics (dispatch, quarantine broadcast)
// can be exercised with fully controlled timing. Behaviour is keyed off
// the dispatched item itself:
//
//   - a Test name suffixed "#<ms>" makes the worker sleep that many
//     milliseconds before answering; it reads nothing meanwhile.
//   - a Test name prefixed "TestQ" answers with one unsafe verdict for
//     the parameter "demo.param" (distinct tests, so several such items
//     trip the coordinator's frequent-failer threshold).
//   - every answer echoes the MsgQuarantine hints received so far in
//     ReachableParams, which is how tests observe the broadcast landing.
func runFakeWorker() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	enc := json.NewEncoder(os.Stdout)
	var hints []string
	for sc.Scan() {
		var m dist.Msg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			os.Exit(1)
		}
		switch m.Type {
		case dist.MsgInit:
			enc.Encode(dist.Msg{Type: dist.MsgReady, PID: os.Getpid()})
		case dist.MsgQuarantine:
			hints = append(hints, m.Param)
		case dist.MsgRun:
			item := *m.Item
			if i := strings.LastIndex(item.Test, "#"); i >= 0 {
				ms, _ := strconv.Atoi(item.Test[i+1:])
				time.Sleep(time.Duration(ms) * time.Millisecond)
			}
			res := campaign.ItemResult{ID: item.ID, Test: item.Test, Executions: 1}
			if strings.HasPrefix(item.Test, "TestQ") {
				res.Verdicts = []campaign.InstanceVerdict{{
					Instance: "fake-" + strconv.Itoa(item.ID),
					Param:    "demo.param",
					Verdict:  runner.VerdictUnsafe.String(),
					Evidence: &forensics.Evidence{
						App: "fake", Test: item.Test, Param: "demo.param",
						Instance: "fake-" + strconv.Itoa(item.ID),
						Msg:      fmt.Sprintf("pid %d", os.Getpid()),
						Failed:   true, FirstDivergent: -1,
					},
				}}
			}
			sort.Strings(hints)
			res.ReachableParams = append([]string(nil), hints...)
			enc.Encode(dist.Msg{Type: dist.MsgResult, Result: &res})
		case dist.MsgBye:
			os.Exit(0)
		}
	}
	os.Exit(0)
}

// TestIdleWorkerTakesAPushedItem: at Parallel 1, a worker busy with a long
// item cannot take a pushed item, so it must not swallow the wake-up the
// push sends either. Each item submitted while the other worker idles is
// dispatched to that worker at once, not at its next one-second tick.
func TestIdleWorkerTakesAPushedItem(t *testing.T) {
	t.Parallel()
	const pushes = 4
	o, tap, _ := tappedObserver()
	run, err := dist.New(dist.Options{
		App:       "fake",
		Workers:   2,
		WorkerCmd: workerFactory("ZEBRACONF_DIST_FAKE=1"),
		Config:    dist.Config{Parallel: 1},
		Obs:       o,
	}).Start(obs.NoSpan, 1+pushes)
	if err != nil {
		t.Fatal(err)
	}
	run.Submit(campaign.WorkItem{ID: 0, Test: "TestLong#2000"})
	tap.await(t, obs.EvWorkerReady, 2)
	tap.await(t, obs.EvItemDispatch, 1)
	busy := tap.events(t, obs.EvItemDispatch)[0].Attrs["worker"]
	for id := 1; id <= pushes; id++ {
		submitted := time.Now()
		run.Submit(campaign.WorkItem{ID: id, Test: fmt.Sprintf("TestShort%d", id)})
		tap.await(t, obs.EvItemDispatch, id+1)
		if took := time.Since(submitted); took > 300*time.Millisecond {
			t.Errorf("item %d waited %v for the idle worker", id, took)
		}
		if w := tap.events(t, obs.EvItemDispatch)[id].Attrs["worker"]; w == busy {
			t.Errorf("item %d went to worker %v, which holds the long item", id, w)
		}
		tap.await(t, obs.EvItemComplete, id)
	}
	res, err := run.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1+pushes {
		t.Fatalf("%d results, want %d", len(res), 1+pushes)
	}
}

// TestQuarantineBroadcastReachesWorkers pins the coordinator side of the
// §4 frequent-failer broadcast: three distinct tests confirming one
// parameter trip the (default) threshold, and the already-running worker
// receives MsgQuarantine before its next item — observed via the fake
// worker echoing its hints. One worker with Parallel 1 keeps the whole
// exchange sequential, hence deterministic.
func TestQuarantineBroadcastReachesWorkers(t *testing.T) {
	t.Parallel()
	o := obs.New()
	items := []campaign.WorkItem{
		{ID: 0, Test: "TestQAlpha"},
		{ID: 1, Test: "TestQBeta"},
		{ID: 2, Test: "TestQGamma"},
		{ID: 3, Test: "TestProbe"},
	}
	coord := dist.New(dist.Options{
		App:       "fake",
		Workers:   1,
		WorkerCmd: workerFactory("ZEBRACONF_DIST_FAKE=1"),
		Config:    dist.Config{Parallel: 1},
		Obs:       o,
	})
	res, err := coord.Execute(obs.NoSpan, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d, want 4", len(res))
	}
	// The first three items confirm demo.param from distinct tests; the
	// broadcast must be on the wire before item 3 is dispatched.
	for _, r := range res[:3] {
		if len(r.ReachableParams) != 0 {
			t.Fatalf("item %d saw quarantine hints %v before the threshold", r.ID, r.ReachableParams)
		}
	}
	if got := res[3].ReachableParams; len(got) != 1 || got[0] != "demo.param" {
		t.Fatalf("item 3 saw hints %v, want [demo.param]", got)
	}
	if n := o.Metrics.CounterValue(obs.MQuarantine, "app", "fake"); n != 1 {
		t.Fatalf("quarantine events = %d, want 1 (one per parameter, not per verdict)", n)
	}
}

// TestServeWorkerAppliesQuarantine is the worker side of the broadcast:
// a real ServeWorker session told that a parameter is quarantined must
// skip that parameter's instances on subsequent items — they disappear
// from the verdicts (skipped, not failed) while the other parameter's
// instances still run.
func TestServeWorkerAppliesQuarantine(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	test, err := app.Test("TestWriteRead")
	if err != nil {
		t.Fatal(err)
	}
	pre := runner.New(app, runner.Options{BaseSeed: 7}).PreRun(test)
	item := campaign.WorkItem{ID: 0, Test: "TestWriteRead", PreRun: pre}

	serve := func(quarantine bool) campaign.ItemResult {
		t.Helper()
		toWorkerR, toWorkerW := io.Pipe()
		fromWorkerR, fromWorkerW := io.Pipe()
		done := make(chan error, 1)
		go func() {
			done <- dist.ServeWorker(toWorkerR, fromWorkerW, apps.ByName)
		}()
		enc := json.NewEncoder(toWorkerW)
		dec := json.NewDecoder(fromWorkerR)
		send := func(m dist.Msg) {
			t.Helper()
			if err := enc.Encode(m); err != nil {
				t.Fatal(err)
			}
		}
		send(dist.Msg{Type: dist.MsgInit, App: app.Name, Config: &dist.Config{
			Params:           []string{"dfs.bytes-per-checksum", "dfs.checksum.type"},
			Seed:             7,
			DisableExecCache: true,
			Parallel:         1,
		}})
		var ready dist.Msg
		if err := dec.Decode(&ready); err != nil || ready.Type != dist.MsgReady || ready.Error != "" {
			t.Fatalf("handshake failed: %+v err %v", ready, err)
		}
		if quarantine {
			send(dist.Msg{Type: dist.MsgQuarantine, Param: "dfs.bytes-per-checksum"})
		}
		send(dist.Msg{Type: dist.MsgRun, Item: &item})
		var m dist.Msg
		for {
			if err := dec.Decode(&m); err != nil {
				t.Fatalf("reading result: %v", err)
			}
			if m.Type == dist.MsgResult {
				break
			}
		}
		send(dist.Msg{Type: dist.MsgBye})
		if err := <-done; err != nil {
			t.Fatalf("ServeWorker: %v", err)
		}
		toWorkerW.Close()
		fromWorkerR.Close()
		return *m.Result
	}

	verdictsFor := func(res campaign.ItemResult, param string) int {
		n := 0
		for _, v := range res.Verdicts {
			if v.Param == param {
				n++
			}
		}
		return n
	}

	base := serve(false)
	quar := serve(true)
	if verdictsFor(base, "dfs.bytes-per-checksum") == 0 {
		t.Fatal("baseline run produced no verdicts for the target parameter; the test is vacuous")
	}
	if n := verdictsFor(quar, "dfs.bytes-per-checksum"); n != 0 {
		t.Fatalf("quarantined parameter still produced %d verdicts", n)
	}
	if verdictsFor(quar, "dfs.checksum.type") == 0 {
		t.Fatal("quarantine of one parameter suppressed the other's instances")
	}
	if quar.Executions >= base.Executions {
		t.Fatalf("quarantine did not save work: %d executions vs %d baseline",
			quar.Executions, base.Executions)
	}
}
