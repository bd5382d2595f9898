package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/launch"
	"zebraconf/internal/core/ledger"
	"zebraconf/internal/core/server"
	"zebraconf/internal/obs"
)

const testToken = "test-secret"

// TestMain doubles the test binary as a campaign's worker subprocess: with
// ZEBRACONF_SERVER_WORKER set it speaks the wire protocol on stdio instead
// of running tests, its disk tier the directory the variable names, as
// `zebraconf -worker -disk-cache <state>/cache` would. With
// ZEBRACONF_SERVER_HANG=1 it acknowledges init and never answers a run.
func TestMain(m *testing.M) {
	dir := os.Getenv("ZEBRACONF_SERVER_WORKER")
	if dir == "" {
		os.Exit(m.Run())
	}
	if os.Getenv("ZEBRACONF_SERVER_HANG") == "1" {
		sc := bufio.NewScanner(os.Stdin)
		sc.Scan() // init
		fmt.Printf("{\"type\":\"ready\",\"pid\":%d}\n", os.Getpid())
		for sc.Scan() {
		} // swallow run messages until the coordinator kills us
		os.Exit(0)
	}
	out := bufio.NewWriter(os.Stdout)
	err := dist.ServeWorkerEnv(os.Stdin, out, apps.ByName, dist.WorkerEnv{DiskCacheDir: dir})
	out.Flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startServer brings up a full service on a loopback port, its campaigns'
// workers this test binary (see TestMain) with env added. The returned
// shutdown must run before the test ends.
func startServer(t *testing.T, stateDir string, env ...string) (*server.Server, *server.Client, func()) {
	t.Helper()
	srv, err := server.New(server.Options{
		Addr:     "127.0.0.1:0",
		Token:    testToken,
		StateDir: stateDir,
		WorkerCmd: func() *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "ZEBRACONF_SERVER_WORKER="+filepath.Join(stateDir, "cache"))
			cmd.Env = append(cmd.Env, env...)
			return cmd
		},
		Resolve: apps.ByName,
		Obs:     obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ready) }()
	var base string
	select {
	case base = <-ready:
	case err := <-serveErr:
		t.Fatal(err)
	}
	shutdown := func() {
		srv.Close() // aborts the running campaign, stops the API
		if err := <-serveErr; err != nil {
			t.Error(err)
		}
	}
	return srv, &server.Client{Base: "http://" + base, Token: testToken}, shutdown
}

// subsetRequest mirrors the dist test suite's deterministic minihdfs
// slice: two checksum parameters, three tests, three work items.
func subsetRequest(seed int64) launch.Spec {
	s := launch.DefaultSpec()
	s.App = "minihdfs"
	s.Params = []string{"dfs.bytes-per-checksum", "dfs.checksum.type"}
	s.Tests = []string{"TestWriteRead", "TestFsck", "TestMkdirList"}
	s.Seed = seed
	s.Workers = 2
	return s
}

// TestServedCampaignMatchesLocal is the tentpole roundtrip: submit over
// REST, execute on two spawned workers, and require the reported set to
// match a local in-process run — then resubmit and require the repeat
// to be served from the disk cache the workers filled.
func TestServedCampaignMatchesLocal(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, cl, shutdown := startServer(t, dir)
	defer shutdown()

	// Wrong token: rejected before any handler runs.
	bad := &server.Client{Base: cl.Base, Token: "wrong"}
	if _, err := bad.List(); err == nil {
		t.Fatal("request with a bad token was accepted")
	}

	id, err := cl.Submit(subsetRequest(11))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cl.Wait(id, 50*time.Millisecond, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d.State != server.StateDone {
		t.Fatalf("campaign state = %s (%s), want done", d.State, d.Error)
	}
	if d.RunID == "" {
		t.Fatal("done campaign has no ledger run ID")
	}
	if d.Counts == nil || d.Counts.Executions == 0 {
		t.Fatalf("done campaign reports no executions: %+v", d.Counts)
	}

	app, err := apps.ByName("minihdfs")
	if err != nil {
		t.Fatal(err)
	}
	req := subsetRequest(11)
	local := campaign.Run(app, campaign.Options{Params: req.Params, Tests: req.Tests, Seed: req.Seed})
	if len(local.Reported) == 0 {
		t.Fatal("local subset campaign reported nothing; the equivalence check is vacuous")
	}
	if len(d.Reported) != len(local.Reported) {
		t.Fatalf("served campaign reported %d parameters, local %d", len(d.Reported), len(local.Reported))
	}
	for i, p := range d.Reported {
		lp := local.Reported[i]
		if p.Param != lp.Param || p.Truth != lp.Truth.String() {
			t.Fatalf("report %d diverges: served %s (%s), local %s (%s)",
				i, p.Param, p.Truth, lp.Param, lp.Truth)
		}
	}

	// The run is in the server's ledger under the linked run ID, so
	// `-mode diff -ledger <state>/ledger` can compare submitted runs.
	recs, err := ledger.Read(filepath.Join(dir, "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].RunID != d.RunID {
		t.Fatalf("ledger records = %+v, want one with run ID %s", recs, d.RunID)
	}

	// The item store sits next to the coverage index, one entry per
	// executed test, so `-mode rerun -ledger <state>/ledger` can replay a
	// served campaign exactly as it replays a local one.
	items, err := coverage.LoadItems(filepath.Join(dir, "ledger"), "minihdfs")
	if err != nil || items == nil {
		t.Fatalf("served campaign left no readable item store: %v, %v", items, err)
	}
	for _, name := range req.Tests {
		var it campaign.ItemResult
		if err := json.Unmarshal(items.Items[name], &it); err != nil || it.Test != name {
			t.Errorf("item store entry for %s: %+v, %v", name, it, err)
		}
	}
	if len(items.Items) != len(req.Tests) {
		t.Errorf("item store holds %d entries, want one per executed test (%d)", len(items.Items), len(req.Tests))
	}

	// The workers opened <state>/cache themselves and wrote what they ran.
	entries, err := filepath.Glob(filepath.Join(dir, "cache", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("the workers left %d entries in <state>/cache (%v), want some", len(entries), err)
	}

	// Resubmit: the identical campaign replays from the disk cache.
	id2, err := cl.Submit(subsetRequest(11))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cl.Wait(id2, 50*time.Millisecond, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d2.State != server.StateDone {
		t.Fatalf("resubmitted campaign state = %s (%s), want done", d2.State, d2.Error)
	}
	if d2.Counts == nil || d2.Counts.Executions >= d.Counts.Executions || d2.Counts.ExecutionsSaved == 0 {
		t.Fatalf("resubmit counts %+v, first run %+v: want fewer executions, some saved", d2.Counts, d.Counts)
	}
	if st, err := cl.Status(); err != nil || st.Campaigns != 2 || st.QueueDepth != 0 || st.Running != "" {
		t.Fatalf("service status = %+v, %v; want 2 campaigns, none queued or running", st, err)
	}
	if len(d2.Reported) != len(d.Reported) {
		t.Fatalf("resubmitted campaign reported %d parameters, first run %d", len(d2.Reported), len(d.Reported))
	}

	sums, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("listed %d campaigns, want 2", len(sums))
	}
	if _, err := cl.Cancel("c9999"); err == nil {
		t.Fatal("cancelling an unknown campaign succeeded")
	}
}

// TestQueueAndCancel exercises the FIFO queue with workers that never
// answer a run: the first campaign occupies the run loop, the second waits
// in queue and cancels in place, and cancelling the running one aborts its
// coordinator.
func TestQueueAndCancel(t *testing.T) {
	t.Parallel()
	_, cl, shutdown := startServer(t, t.TempDir(), "ZEBRACONF_SERVER_HANG=1")
	defer shutdown()

	id1, err := cl.Submit(subsetRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		d, err := cl.Get(id1)
		if err != nil {
			t.Fatal(err)
		}
		if d.State == server.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never started running (state %s)", id1, d.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The second submission carries the settings `-mode submit` used to
	// drop or rewrite; the detail must echo them as sent.
	spec2 := subsetRequest(6)
	spec2.Select, spec2.ThreadOnly, spec2.Overrides, spec2.Heartbeat = "all", true, "dfs.replication=2", 0
	id2, err := cl.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cl.Get(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d2.Request, spec2) {
		t.Fatalf("submitted %+v, service holds %+v", spec2, d2.Request)
	}
	if d2.State != server.StateQueued || d2.QueuePosition != 1 {
		t.Fatalf("second campaign = %s at queue position %d, want queued at 1", d2.State, d2.QueuePosition)
	}
	if state, err := cl.Cancel(id2); err != nil || state != server.StateCancelled {
		t.Fatalf("cancelling queued campaign: state %s, err %v", state, err)
	}

	if _, err := cl.Cancel(id1); err != nil {
		t.Fatal(err)
	}
	d1, err := cl.Wait(id1, 20*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d1.State != server.StateCancelled {
		t.Fatalf("cancelled running campaign settled as %s, want cancelled", d1.State)
	}
	if d1.RunID != "" {
		t.Fatal("cancelled campaign was written to the ledger")
	}
}
