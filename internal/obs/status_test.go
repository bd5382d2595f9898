package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
)

// statusObserver returns an Observer with a registry and live tables
// attached, one campaign for app started on it, and slots set.
func statusObserver(app string, slots int) *Observer {
	o := New()
	o.Status = NewStatus()
	o.Event(EvCampaignStart, String("app", app))
	o.SetSlots(slots)
	return o
}

func item(id int) Attr     { return Int("item", int64(id)) }
func worker(slot int) Attr { return Int("worker", int64(slot)) }

// TestStatusETACalibration checks the ETA walk: completing one item at
// 2x its prediction calibrates the remaining items' estimates, which
// divide across the slot count.
func TestStatusETACalibration(t *testing.T) {
	o := statusObserver("fake", 2)
	for i := 0; i < 4; i++ {
		o.Event(EvItemQueued, item(i), String("test", "TestX"), Float("pred_s", 10))
	}
	o.Event(EvItemDispatch, item(0))
	o.Event(EvItemComplete, item(0), Float("elapsed_s", 20)) // actual/predicted = 2.0

	cs := o.Campaign()
	if cs.ItemsDone != 1 || cs.ItemsQueued != 3 {
		t.Fatalf("items: done=%d queued=%d", cs.ItemsDone, cs.ItemsQueued)
	}
	// 3 queued x 10s predicted x 2.0 calibration = 60s over 2 slots.
	if math.Abs(cs.EtaSeconds-30) > 0.01 {
		t.Fatalf("ETA %.2fs, want 30s", cs.EtaSeconds)
	}
	if cs.Phase != "starting" {
		t.Fatalf("phase %q, want starting", cs.Phase)
	}
}

// TestStatusETAFallback: with no predictions, the mean completed
// duration stands in.
func TestStatusETAFallback(t *testing.T) {
	o := statusObserver("fake", 1)
	o.Event(EvItemQueued, item(0), String("test", "TestA"), Float("pred_s", 0))
	o.Event(EvItemQueued, item(1), String("test", "TestB"), Float("pred_s", 0))
	o.Event(EvItemDispatch, item(0))
	o.Event(EvItemComplete, item(0), Float("elapsed_s", 4))
	cs := o.Campaign()
	if math.Abs(cs.EtaSeconds-4) > 0.01 {
		t.Fatalf("ETA %.2fs, want 4s (mean duration fallback)", cs.EtaSeconds)
	}
	// Slots clamp to unfinished work: 1 queued item, 8 slots, same ETA.
	o.SetSlots(8)
	cs = o.Campaign()
	if math.Abs(cs.EtaSeconds-4) > 0.01 {
		t.Fatalf("ETA %.2fs after SetSlots(8), want 4s", cs.EtaSeconds)
	}
}

// TestStatusItemLifecycle covers idempotence: duplicate completions and
// re-marking running items must not double count, and requeued items
// return to the queue.
func TestStatusItemLifecycle(t *testing.T) {
	o := statusObserver("fake", 1)
	o.Event(EvItemQueued, item(0), String("test", "TestA"), Float("pred_s", 1))
	o.Event(EvItemDispatch, item(0))
	o.Event(EvItemDispatch, item(0))
	o.Event(EvItemComplete, item(0), Float("elapsed_s", 2))
	o.Event(EvItemComplete, item(0), Float("elapsed_s", 2))
	cs := o.Campaign()
	if cs.ItemsDone != 1 {
		t.Fatalf("items done %d, want 1", cs.ItemsDone)
	}

	o.Event(EvItemQueued, item(1), String("test", "TestB"), Float("pred_s", 1))
	o.Event(EvItemDispatch, item(1))
	o.Event(EvItemRetried, item(1))
	cs = o.Campaign()
	if cs.ItemsQueued != 1 || cs.ItemsRunning != 0 {
		t.Fatalf("after requeue: queued=%d running=%d", cs.ItemsQueued, cs.ItemsRunning)
	}
}

// TestStatusWorkers covers the heartbeat-driven state machine.
func TestStatusWorkers(t *testing.T) {
	o := statusObserver("fake", 2)
	o.Event(EvWorkerSpawn, worker(0), Int("pid", 100))
	o.WorkerHeartbeat("fake", 0, 100, []int{3}, 17, 9, 1<<20)
	o.Event(EvWorkerStalled, worker(0))
	o.Event(EvWorkerRecovered, worker(0))
	o.Event(EvWorkerSpawn, worker(1), Int("pid", 101))
	o.Event(EvWorkerCrash, worker(1), String("reason", "crash"))

	ws := o.Workers()
	if len(ws) != 2 {
		t.Fatalf("got %d workers", len(ws))
	}
	w0 := ws[0]
	if w0.State != "ready" || w0.Stalls != 1 || w0.Executions != 17 || w0.LastHeartbeatS < 0 {
		t.Fatalf("worker 0: %+v", w0)
	}
	if len(w0.Inflight) != 1 || w0.Inflight[0] != 3 {
		t.Fatalf("worker 0 inflight: %v", w0.Inflight)
	}
	if ws[1].State != "crashed" {
		t.Fatalf("worker 1 state %q", ws[1].State)
	}
	// Recovery only applies to stalled workers, not crashed ones.
	o.Event(EvWorkerRecovered, worker(1))
	if got := o.Workers()[1].State; got != "crashed" {
		t.Fatalf("worker 1 after bogus recover: %q", got)
	}
}

// TestStatusParams covers the live verdict table.
func TestStatusParams(t *testing.T) {
	o := statusObserver("fake", 1)
	o.Event(EvVerdict, String("param", "b.param"), String("test", "TestX"), Float("p", 0.25))
	o.Event(EvVerdict, String("param", "b.param"), String("test", "TestY"), Float("p", 0.0625))
	o.Event(EvVerdict, String("param", "a.param"), String("test", "TestX"), Float("p", 0.125))
	o.Event(EvParamQuarantined, String("param", "b.param"))

	ps := o.Params()
	if len(ps) != 2 || ps[0].Param != "a.param" || ps[1].Param != "b.param" {
		t.Fatalf("params: %+v", ps)
	}
	b := ps[1]
	if b.UnsafeVerdicts != 2 || b.MinP != 0.0625 || !b.Quarantined || len(b.Tests) != 2 {
		t.Fatalf("b.param row: %+v", b)
	}
}

// TestServeDebugStatusAPI starts the debug server with a live status
// tracker and reads the three endpoints over real HTTP.
func TestServeDebugStatusAPI(t *testing.T) {
	o := statusObserver("minihdfs", 2)
	o.Event(EvPhaseStart, String("phase", "instances"))
	o.Event(EvItemQueued, item(0), String("test", "TestWriteRead"), Float("pred_s", 5))
	o.Event(EvWorkerSpawn, worker(0), Int("pid", 4242))
	o.Event(EvVerdict, String("param", "dfs.checksum.type"), String("test", "TestWriteRead"), Float("p", 0.0625))

	addr, shutdown, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	var cs CampaignStatus
	getJSON(t, "http://"+addr+"/api/campaign", &cs)
	if cs.App != "minihdfs" || cs.Phase != "instances" || cs.ItemsQueued != 1 {
		t.Fatalf("campaign snapshot: %+v", cs)
	}
	if cs.EtaSeconds <= 0 {
		t.Fatalf("ETA %.2f, want > 0", cs.EtaSeconds)
	}

	var ws []WorkerStatus
	getJSON(t, "http://"+addr+"/api/workers", &ws)
	if len(ws) != 1 || ws[0].PID != 4242 {
		t.Fatalf("workers: %+v", ws)
	}

	var ps []ParamStatus
	getJSON(t, "http://"+addr+"/api/params", &ps)
	if len(ps) != 1 || ps[0].Param != "dfs.checksum.type" {
		t.Fatalf("params: %+v", ps)
	}
}

// TestServeDebugStatusDisabled: without a status tracker the API
// answers 503, not 200-with-garbage and not a panic.
func TestServeDebugStatusDisabled(t *testing.T) {
	o := New()
	addr, shutdown, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/api/campaign")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("%s: decode: %v", url, err)
	}
}
