package dist_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// coordinator-side scheduling mechanics (speculation, quarantine
// broadcast) can be exercised with fully controlled timing. Behaviour is
// keyed off the dispatched item itself:
//
//   - a Test name suffixed "#<ms>" makes the FIRST process to claim that
//     item (an O_EXCL file in ZEBRACONF_DIST_FAKE_DIR) straggle for that
//     many milliseconds before answering; any later claimant — the
//     speculative copy — answers instantly.
//   - a Test name prefixed "TestQ" answers with one unsafe verdict for
//     the parameter "demo.param" (distinct tests, so several such items
//     trip the coordinator's frequent-failer threshold).
//   - every answer echoes the MsgQuarantine hints received so far in
//     ReachableParams, which is how tests observe the broadcast landing.
func runFakeWorker() {
	dir := os.Getenv("ZEBRACONF_DIST_FAKE_DIR")
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
			if i := strings.LastIndex(item.Test, "#"); i >= 0 && dir != "" {
				ms, _ := strconv.Atoi(item.Test[i+1:])
				claim := filepath.Join(dir, fmt.Sprintf("claim%d", item.ID))
				if f, err := os.OpenFile(claim, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
					// Record which process straggled, so tests can tell the
					// losing primary's evidence from the winner's.
					fmt.Fprintf(f, "pid %d", os.Getpid())
					f.Close()
					time.Sleep(time.Duration(ms) * time.Millisecond)
				}
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

// TestSpeculationReissuesStraggler drives the straggler path end to end:
// item 0's primary worker sleeps well past its (tiny) predicted
// duration, the queue is drained, and an idle worker must re-issue it
// and win; the primary's late duplicate arrives while the run is still
// open (item 1 finishes even later) and is discarded before accounting.
func TestSpeculationReissuesStraggler(t *testing.T) {
	t.Parallel()
	o := obs.New()
	dir := t.TempDir()
	items := []campaign.WorkItem{
		// #1800: primary straggles 1.8s against a 10ms prediction.
		{ID: 0, Test: "TestStraggler#1800", PredSeconds: 0.01},
		// A 10s prediction keeps item 1 from ever looking overdue, so it
		// holds the run open for the duplicate to land.
		{ID: 1, Test: "TestTail#2600", PredSeconds: 10},
		{ID: 2, Test: "TestFastA", PredSeconds: 0.01},
		{ID: 3, Test: "TestFastB", PredSeconds: 0.01},
	}
	coord := dist.New(dist.Options{
		App:               "fake",
		Workers:           3,
		WorkerCmd:         workerFactory("ZEBRACONF_DIST_FAKE=1", "ZEBRACONF_DIST_FAKE_DIR="+dir),
		Config:            dist.Config{Parallel: 1},
		SpeculationFactor: 1.0,
		Obs:               o,
	}).WithLimits(8*time.Second, 0)
	res, err := coord.Execute(obs.NoSpan, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(items) {
		t.Fatalf("results = %d, want %d (duplicates must be discarded)", len(res), len(items))
	}
	for i, r := range res {
		if r.ID != i || r.Quarantined {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
	if n := o.Metrics.CounterValue(obs.MSpeculativeRuns, "app", "fake"); n != 1 {
		t.Fatalf("speculative runs = %d, want exactly 1 (only the straggler is overdue)", n)
	}
	if n := o.Metrics.CounterValue(obs.MSpeculationWins, "app", "fake"); n != 1 {
		t.Fatalf("speculation wins = %d, want 1", n)
	}
	// Five results crossed the wire (four items + the losing primary
	// copy), but exactly four may be accounted.
	if n := o.Metrics.CounterValue(obs.MWorkerItems, "app", "fake"); n != int64(len(items)) {
		t.Fatalf("accounted items = %d, want %d", n, len(items))
	}
}

// TestSpeculationDiscardsLoserEvidence pins the protocol-level evidence
// dedup: the straggler's primary and its speculative copy BOTH answer
// with evidence-bearing verdicts, so five such results cross the wire
// for four items — and exactly four evidence records may be accounted.
// The survivor for the speculated item must be the winner's record (the
// instant speculative copy), not the sleeping primary's, whose pid is
// recoverable from the straggle claim file.
func TestSpeculationDiscardsLoserEvidence(t *testing.T) {
	t.Parallel()
	o := obs.New()
	dir := t.TempDir()
	items := []campaign.WorkItem{
		{ID: 0, Test: "TestQStraggler#1800", PredSeconds: 0.01},
		{ID: 1, Test: "TestQTail#2600", PredSeconds: 10},
		{ID: 2, Test: "TestQFastA", PredSeconds: 0.01},
		{ID: 3, Test: "TestQFastB", PredSeconds: 0.01},
	}
	coord := dist.New(dist.Options{
		App:               "fake",
		Workers:           3,
		WorkerCmd:         workerFactory("ZEBRACONF_DIST_FAKE=1", "ZEBRACONF_DIST_FAKE_DIR="+dir),
		Config:            dist.Config{Parallel: 1},
		SpeculationFactor: 1.0,
		Obs:               o,
	}).WithLimits(8*time.Second, 0)
	res, err := coord.Execute(obs.NoSpan, items)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Metrics.CounterValue(obs.MSpeculationWins, "app", "fake"); n != 1 {
		t.Fatalf("speculation wins = %d, want 1 (no duplicate ever crossed the wire)", n)
	}
	if n := o.Metrics.CounterValue(obs.MEvidenceRecords, "app", "fake"); n != int64(len(items)) {
		t.Fatalf("evidence records = %d, want %d: the discarded duplicate's record leaked into accounting", n, len(items))
	}
	loser, err := os.ReadFile(filepath.Join(dir, "claim0"))
	if err != nil {
		t.Fatalf("the primary never straggled: %v", err)
	}
	ev := res[0].Verdicts[0].Evidence
	if ev == nil {
		t.Fatal("the speculated item lost its evidence record")
	}
	if ev.Msg == string(loser) {
		t.Fatalf("accounted evidence %q is the discarded primary's, want the speculative winner's", ev.Msg)
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
