package dist_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/obs"
)

// parentBeat is a heartbeat line as an older worker wrote it, health
// snapshot and all. Workers no longer beat; a coordinator still reads the
// line, as a frame of a type it ignores.
const parentBeat = `{"type":"heartbeat","pid":9,"hb":{"inflight":[1,3],"executions":40,"goroutines":12,"heap_bytes":8589934592}}`

// runHBFakeWorker is an older worker as far as liveness goes: a
// protocol-level fake that beats parentBeat every 25ms while idle, goes
// completely silent for 600ms when given an item (the span after which an
// older coordinator flagged it stalled), then resumes beating and delivers
// the result. Selected by ZEBRACONF_DIST_HB_FAKE=1 from TestMain's worker
// branch.
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
			// Beat immediately: the run dispatch, which silences this
			// fake, follows ready with no gap.
			hb()
		case dist.MsgRun:
			item := *m.Item
			silent.Store(true)
			time.Sleep(600 * time.Millisecond)
			silent.Store(false)
			// A beat right before the result, as on recovery.
			hb()
			send(dist.Msg{Type: dist.MsgResult, Result: &campaign.ItemResult{ID: item.ID, Test: item.Test, Executions: 1}})
		case dist.MsgBye:
			close(stop)
			os.Exit(0)
		}
	}
	os.Exit(0)
}

// TestCoordinatorIgnoresOlderWorkerBeats is the mixed-binary check: an
// older worker's beats, and its silence while it works an item, are
// nothing to the coordinator. The late result is accepted, no worker is
// lost and no item retried, and no heartbeat or stall family appears in
// the metrics.
func TestCoordinatorIgnoresOlderWorkerBeats(t *testing.T) {
	t.Parallel()
	o := obs.New()
	var events bytes.Buffer
	o.Events = obs.NewEventLog(&events)
	o.Event(obs.EvCampaignStart, obs.String("app", "fake"))

	coord := dist.New(dist.Options{
		App:       "fake",
		Workers:   1,
		WorkerCmd: workerFactory("ZEBRACONF_DIST_HB_FAKE=1"),
		Config:    dist.Config{Parallel: 1},
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
	if len(results) != 1 || results[0].ID != 0 || results[0].Executions != 1 {
		t.Fatalf("results: %+v", results)
	}

	recs, err := obs.ReadEvents(&events)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Event == obs.EvWorkerCrash || r.Event == obs.EvItemRetried {
			t.Fatalf("%s event in a run whose worker was never lost: %+v", r.Event, r)
		}
	}
	var prom bytes.Buffer
	if err := o.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.Contains(line, "heartbeat") || strings.Contains(line, "stall") {
			t.Errorf("metrics carry a heartbeat or stall family: %s", line)
		}
	}
}
