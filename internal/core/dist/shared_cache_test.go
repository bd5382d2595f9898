package dist_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/obs"
)

// wireMsg is what the shared-cache tests read off a tapped session: the
// envelope's JSON keys, not dist.Msg's Go fields, so the tests say what is
// on the wire and nothing about how either side represents it.
type wireMsg struct {
	Type   string `json:"type"`
	Config *struct {
		SharedPersistent bool `json:"shared_persistent"`
	} `json:"config"`
	CacheHit bool `json:"cache_hit"`
}

// wireTap is one real worker — dist.ServeWorker, in this process — on a
// gateway session whose every line, in both directions, the test keeps.
type wireTap struct {
	conn net.Conn
	done chan struct{}

	mu   sync.Mutex
	sent []wireMsg    // worker → coordinator
	recv bytes.Buffer // coordinator → worker, raw lines
}

// Write is the worker's side of the wire; ServeWorker writes one whole
// message per call, one call at a time. Only what went out is kept.
func (w *wireTap) Write(p []byte) (int, error) {
	var m wireMsg
	if err := json.Unmarshal(p, &m); err != nil {
		return 0, err
	}
	n, err := w.conn.Write(p)
	if err != nil {
		return n, err
	}
	w.mu.Lock()
	w.sent = append(w.sent, m)
	w.mu.Unlock()
	return n, nil
}

// count is the number of messages of one type the worker has sent; call
// it after done.
func (w *wireTap) count(typ string) int {
	n := 0
	for _, m := range w.sent {
		if m.Type == typ {
			n++
		}
	}
	return n
}

// lostAfter is app with its test bodies counted: the moment the n-th
// execution is over conn is slammed shut — a machine lost mid-item.
func lostAfter(app *harness.App, n int32, conn net.Conn) *harness.App {
	lost := *app
	lost.Tests = append([]harness.UnitTest(nil), app.Tests...)
	var ran atomic.Int32
	for i := range lost.Tests {
		body := lost.Tests[i].Run
		lost.Tests[i].Run = func(t *harness.T) {
			defer func() {
				if ran.Add(1) == n {
					conn.Close()
				}
			}()
			body(t)
		}
	}
	return &lost
}

// received decodes what the coordinator sent; call it after done.
func (w *wireTap) received(t *testing.T) []wireMsg {
	t.Helper()
	var out []wireMsg
	sc := bufio.NewScanner(&w.recv)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var m wireMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("coordinator sent a bad line: %v", err)
		}
		out = append(out, m)
	}
	return out
}

// startTap connects a tapped worker to the gateway and serves one session
// on it in the background; a positive lostAfterRuns loses the worker once
// it has executed that many runs.
func startTap(t *testing.T, gw *dist.Gateway, token string, lostAfterRuns int32) *wireTap {
	t.Helper()
	conn, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(conn).Encode(dist.Msg{Type: dist.MsgHello, Token: token, PID: os.Getpid()}); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	if _, err := rd.ReadString('\n'); err != nil { // welcome
		t.Fatal(err)
	}
	tap := &wireTap{conn: conn, done: make(chan struct{})}
	resolve := func(name string) (*harness.App, error) {
		app, err := apps.ByName(name)
		if err == nil && lostAfterRuns > 0 {
			app = lostAfter(app, lostAfterRuns, conn)
		}
		return app, err
	}
	go func() {
		defer close(tap.done)
		defer conn.Close()
		// The session's error is the cut connection's, or nil after bye;
		// what matters to the tests is on the wire.
		_ = dist.ServeWorker(io.TeeReader(rd, &tap.recv), tap, resolve)
	}()
	return tap
}

// waitTaps closes the gateway (releasing any worker it still has parked)
// and waits for every tapped session to end.
func waitTaps(t *testing.T, gw *dist.Gateway, taps ...*wireTap) {
	t.Helper()
	gw.Close()
	for i, tap := range taps {
		select {
		case <-tap.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("tapped worker %d never finished its session", i)
		}
	}
}

// sharedSeries returns the coordinator-side shared-tier lookup counters
// the registry holds: every MCacheMisses series, and the MCacheHits ones
// with scope="shared".
func sharedSeries(o *obs.Observer) map[string]int64 {
	out := make(map[string]int64)
	for series, v := range o.Metrics.Snapshot().Counters {
		if strings.HasPrefix(series, obs.MCacheMisses) ||
			(strings.HasPrefix(series, obs.MCacheHits) && strings.Contains(series, `scope="shared"`)) {
			out[series] = v
		}
	}
	return out
}

func itemByTest(t *testing.T, res *campaign.Result, test string) campaign.ItemResult {
	t.Helper()
	for _, it := range res.Items {
		if it.Test == test {
			return it
		}
	}
	t.Fatalf("no item result for %s", test)
	return campaign.ItemResult{}
}

// TestHealthyCampaignAsksNothing: a coordinator that fronts no persistent
// store has nothing a worker could read, so its workers are given no
// coordinator tier: no cache- line crosses the wire in either direction
// (there used to be a cache-put per executed run, read by nobody) and the
// coordinator counts no shared-tier lookup.
func TestHealthyCampaignAsksNothing(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	const seed, token = 11, "tap-secret"
	gw, err := dist.ListenGateway("127.0.0.1:0", token, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	taps := []*wireTap{startTap(t, gw, token, 0), startTap(t, gw, token, 0)}
	waitIdle(t, gw, 2)

	o := obs.New()
	res := runDistributed(t, app, subsetOptions(seed, o), dist.Options{Workers: 2, Sessions: gw})
	waitTaps(t, gw, taps...)

	results := 0
	for _, tap := range taps {
		results += tap.count(dist.MsgResult)
		for _, m := range append(tap.received(t), tap.sent...) {
			if strings.HasPrefix(m.Type, "cache-") {
				t.Errorf("a %s line on the wire of a campaign with no persistent tier", m.Type)
			}
			if m.Type == dist.MsgInit && m.Config.SharedPersistent {
				t.Error("init says shared_persistent for a coordinator without a store")
			}
		}
	}
	if results != len(res.Items) || results == 0 {
		t.Fatalf("%d results crossed the wire for %d items", results, len(res.Items))
	}
	if series := sharedSeries(o); len(series) != 0 {
		t.Errorf("the coordinator counted shared-tier lookups in a healthy campaign: %v", series)
	}
	local := campaign.Run(app, subsetOptions(seed, nil))
	if normalized(t, res) != normalized(t, local) {
		t.Error("the campaign's report differs from the in-process one")
	}
}

// TestRetriedItemEqualsFirstAttempt: worker A is lost after its third
// execution of TestWriteRead and worker B takes the retry. Nothing of A's
// attempt survives it, so the accepted result is, byte for byte, what an
// uninterrupted run returns — execution counts included (B used to reuse
// what A had published and report those executions as saved).
func TestRetriedItemEqualsFirstAttempt(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	const seed, token = 11, "tap-secret"
	// One test, so one item.
	run := func(o *obs.Observer, lostAfterRuns int32) []byte {
		gw, err := dist.ListenGateway("127.0.0.1:0", token, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		// The gateway leases idle workers in the order they parked: with
		// one slot the campaign starts on the first session.
		a := startTap(t, gw, token, lostAfterRuns)
		waitIdle(t, gw, 1)
		b := startTap(t, gw, token, 0)
		waitIdle(t, gw, 2)
		opts := subsetOptions(seed, o)
		opts.Tests = []string{"TestWriteRead"}
		res := runDistributed(t, app, opts, dist.Options{
			Workers:     1,
			Sessions:    gw,
			ItemRetries: dist.DefaultItemRetries,
		})
		waitTaps(t, gw, a, b)
		item, err := json.Marshal(itemByTest(t, res, "TestWriteRead"))
		if err != nil {
			t.Fatal(err)
		}
		return item
	}

	o := obs.New()
	retried := run(o, 3)
	if n := o.Metrics.CounterValue(obs.MWorkerCrashes, "app", app.Name, "reason", "crash"); n != 1 {
		t.Fatalf("worker crashes = %d, want 1 (worker A's cut connection)", n)
	}
	if n := o.Metrics.CounterValue(obs.MItemRetries, "app", app.Name); n != 1 {
		t.Fatalf("item retries = %d, want 1", n)
	}
	if first := run(nil, 0); !bytes.Equal(retried, first) {
		t.Errorf("the retried item differs from a first attempt:\n retried %s\n first   %s", retried, first)
	}
}

// mapBackend is a memo.Backend that outlives a campaign, standing in for
// the disk store behind `-mode serve`.
type mapBackend struct {
	mu sync.Mutex
	m  map[memo.Key]memo.Result
}

func (b *mapBackend) Get(k memo.Key) (memo.Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	res, ok := b.m[k]
	return res, ok
}

func (b *mapBackend) Put(k memo.Key, res memo.Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = res
}

// TestPersistentTierIsAskedRegardless: when the coordinator fronts a store
// that outlives the campaign it can hold entries of earlier campaigns —
// so its workers ask about every key, and a resubmit is served from the
// store.
func TestPersistentTierIsAskedRegardless(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	const seed, token = 11, "tap-secret"
	store := &mapBackend{m: make(map[memo.Key]memo.Result)}
	submit := func() (gets, hits int, res *campaign.Result) {
		gw, err := dist.ListenGateway("127.0.0.1:0", token, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		tap := startTap(t, gw, token, 0)
		waitIdle(t, gw, 1)
		res = runDistributed(t, app, subsetOptions(seed, obs.New()), dist.Options{
			Workers: 1, Sessions: gw, SharedBackend: store,
		})
		waitTaps(t, gw, tap)
		for _, m := range tap.received(t) {
			if m.Type == dist.MsgCacheVal && m.CacheHit {
				hits++
			}
			if m.Type == dist.MsgInit && !m.Config.SharedPersistent {
				t.Error("init does not say shared_persistent for a coordinator fronting a store")
			}
		}
		return tap.count(dist.MsgCacheGet), hits, res
	}

	gets, hits, first := submit()
	if gets == 0 || hits != 0 {
		t.Fatalf("cold store: %d cache-gets, %d hits; want the worker to ask and miss", gets, hits)
	}
	gets, hits, again := submit()
	if hits == 0 || hits != gets {
		t.Fatalf("resubmit: %d cache-gets, %d hits; want every lookup served from the store", gets, hits)
	}
	if again.Counts.Executed >= first.Counts.Executed {
		t.Errorf("resubmit executed %d runs, the cold campaign %d: nothing was reused", again.Counts.Executed, first.Counts.Executed)
	}
	if normalized(t, again) != normalized(t, first) {
		t.Error("the resubmit's report differs from the cold campaign's")
	}
}

// TestStdioWorkersOpenTheDiskTierThemselves: two stdio workers given the
// same -disk-cache directory by their own flags read and write it directly.
// Nothing about the cache crosses the wire, the coordinator's handle on the
// directory is never touched, each executed run is written once, and a
// second campaign over the directory is served from it.
func TestStdioWorkersOpenTheDiskTierThemselves(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("miniyarn")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dir := filepath.Join(root, "dc")
	submit := func() (*campaign.Result, int64) {
		// The coordinator's own handle, as launch.prepare leaves it: behind
		// its in-process runner, not behind the workers.
		store, err := diskcache.Open(dir, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		opts := campaign.Options{Seed: 1, QuarantineThreshold: math.MaxInt32, CacheBackend: store, Obs: o}
		res := runDistributed(t, app, opts, dist.Options{
			Workers:             2,
			WorkerCmd:           workerFactory("ZEBRACONF_DIST_DISK_CACHE=" + dir),
			QuarantineThreshold: math.MaxInt32,
		})
		if st := store.Stats(); st.Writes != 0 || st.Misses != 0 {
			t.Errorf("the coordinator's store handle saw %d writes and %d misses, want none", st.Writes, st.Misses)
		}
		return res, o.Metrics.CounterValue(obs.MItemExecutions, "app", app.Name)
	}

	cold, executed := submit()
	sent, err := filepath.Glob(filepath.Join(root, "sent-*"))
	if err != nil || len(sent) != 2 {
		t.Fatalf("workers left %d sent-<pid> files (%v), want 2", len(sent), err)
	}
	for _, name := range sent {
		lines, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(lines, []byte(`"type":"cache-`)); n != 0 {
			t.Errorf("%s: %d cache- lines sent by a worker with its own disk tier", filepath.Base(name), n)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || executed == 0 || int64(len(entries)) != executed {
		t.Fatalf("%d entries on disk for %d executed runs (%v), want one each", len(entries), executed, err)
	}

	warm, _ := submit()
	if !reflect.DeepEqual(warm.Reported, cold.Reported) || len(cold.Reported) == 0 {
		t.Errorf("reported parameters diverge:\n warm %+v\n cold %+v", warm.Reported, cold.Reported)
	}
	if warm.Counts.Executed >= cold.Counts.Executed {
		t.Errorf("the second campaign executed %d runs, the cold one %d: nothing was reused", warm.Counts.Executed, cold.Counts.Executed)
	}
}
