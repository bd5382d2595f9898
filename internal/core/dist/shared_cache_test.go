package dist_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/obs"
)

// wireMsg is what the shared-cache tests read off a tapped session: the
// envelope's JSON keys, not dist.Msg's Go fields, so the tests say what is
// on the wire and nothing about how either side represents it.
type wireMsg struct {
	Type string `json:"type"`
	Warm bool   `json:"warm"`
	Item *struct {
		Test string `json:"test"`
	} `json:"item"`
	CacheKey *memo.Key `json:"cache_key"`
	CacheHit bool      `json:"cache_hit"`
}

// wireTap is one real worker — dist.ServeWorker, in this process — on a
// gateway session whose every line, in both directions, the test keeps.
type wireTap struct {
	conn net.Conn
	// cutAfterPuts, when positive, slams the connection shut the moment
	// that many cache-put lines are out: a machine lost mid-item, after
	// publishing exactly that much.
	cutAfterPuts int
	done         chan struct{}

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
	cut := w.cutAfterPuts > 0 && m.Type == dist.MsgCachePut && w.count(dist.MsgCachePut) == w.cutAfterPuts
	w.mu.Unlock()
	if cut {
		w.conn.Close()
	}
	return n, nil
}

// count is the number of messages of one type the worker has sent; the
// caller holds w.mu or has waited for done.
func (w *wireTap) count(typ string) int {
	n := 0
	for _, m := range w.sent {
		if m.Type == typ {
			n++
		}
	}
	return n
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
// on it in the background.
func startTap(t *testing.T, gw *dist.Gateway, token string, cutAfterPuts int) *wireTap {
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
	tap := &wireTap{conn: conn, cutAfterPuts: cutAfterPuts, done: make(chan struct{})}
	go func() {
		defer close(tap.done)
		defer conn.Close()
		// The session's error is the cut connection's, or nil after bye;
		// what matters to the tests is on the wire.
		_ = dist.ServeWorker(io.TeeReader(rd, &tap.recv), tap, apps.ByName)
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

// TestHealthyCampaignAsksNothing: a memo key contains its test and a work
// item is one test, so in a campaign where nothing is re-dispatched the
// coordinator's ephemeral shared tier can never answer a lookup. The
// workers know it: no cache-get crosses the wire (there used to be one
// blocking round trip per executed run), no run is marked warm, and the
// coordinator counts no shared-tier lookup at all — while every executed
// run is still published, because a crash must leave what was done.
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

	var gets, vals, puts, results int
	for _, tap := range taps {
		gets += tap.count(dist.MsgCacheGet)
		puts += tap.count(dist.MsgCachePut)
		results += tap.count(dist.MsgResult)
		for _, m := range tap.received(t) {
			if m.Type == dist.MsgRun && m.Warm {
				t.Errorf("run of %s is marked warm in a campaign that re-dispatched nothing", m.Item.Test)
			}
			if m.Type == dist.MsgCacheVal {
				vals++
			}
		}
	}
	if results != len(res.Items) || results == 0 {
		t.Fatalf("%d results crossed the wire for %d items", results, len(res.Items))
	}
	if gets != 0 || vals != 0 {
		t.Errorf("%d cache-get and %d cache-val lines on the wire of a healthy campaign, want none", gets, vals)
	}
	if puts == 0 || int64(puts) > res.Counts.Executed {
		t.Errorf("%d cache-put lines for %d executions: executed runs must keep streaming to the coordinator", puts, res.Counts.Executed)
	}
	if series := sharedSeries(o); len(series) != 0 {
		t.Errorf("the coordinator counted shared-tier lookups in a healthy campaign: %v", series)
	}
	local := campaign.Run(app, subsetOptions(seed, nil))
	if normalized(t, res) != normalized(t, local) {
		t.Error("the campaign's report differs from the in-process one")
	}
}

// TestRedispatchReusesPublishedRuns: worker A publishes three executed
// runs of TestWriteRead and is lost mid-item. The coordinator holds those
// entries, so the re-dispatched item reaches worker B as one whose lookups
// can hit: B asks, its first three lookups are answered from what A
// published (an item replays its runs in the same order on any worker),
// and the item's result says at least that many executions were saved.
func TestRedispatchReusesPublishedRuns(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	const seed, token, published = 11, "tap-secret", 3
	gw, err := dist.ListenGateway("127.0.0.1:0", token, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	// The gateway leases idle workers in the order they parked: with one
	// slot the campaign starts on the doomed session.
	a := startTap(t, gw, token, published)
	waitIdle(t, gw, 1)
	b := startTap(t, gw, token, 0)
	waitIdle(t, gw, 2)

	// One test, so one item: what A publishes and what B looks up first
	// are the same runs.
	opts := func(o *obs.Observer) campaign.Options {
		opts := subsetOptions(seed, o)
		opts.Tests = []string{"TestWriteRead"}
		return opts
	}
	o := obs.New()
	res := runDistributed(t, app, opts(o), dist.Options{
		Workers:     1,
		Sessions:    gw,
		ItemRetries: dist.DefaultItemRetries,
	})
	waitTaps(t, gw, a, b)

	if n := o.Metrics.CounterValue(obs.MWorkerCrashes, "app", app.Name, "reason", "crash"); n != 1 {
		t.Fatalf("worker crashes = %d, want 1 (worker A's cut connection)", n)
	}
	if n := a.count(dist.MsgCachePut); n != published {
		t.Fatalf("worker A published %d runs before it was lost, want %d", n, published)
	}

	hits := 0
	for _, m := range b.received(t) {
		if m.Type == dist.MsgCacheVal && m.CacheHit {
			hits++
		}
	}
	if gets := b.count(dist.MsgCacheGet); gets < published || hits != published {
		t.Errorf("worker B sent %d cache-gets and %d of them hit, want all %d published runs reused", gets, hits, published)
	}
	if saved := itemByTest(t, res, "TestWriteRead").ExecutionsSaved; saved < published {
		t.Errorf("the re-dispatched item reports %d executions saved, want at least the %d worker A published", saved, published)
	}
	if n := o.Metrics.CounterValue(obs.MCacheHits, "app", app.Name, "scope", "shared"); n != published {
		t.Errorf("coordinator counted %d shared hits, want %d", n, published)
	}
	local := campaign.Run(app, opts(nil))
	if normalized(t, res) != normalized(t, local) {
		t.Error("the retried campaign's report differs from the in-process one")
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

// TestPersistentTierIsAskedRegardless: when the coordinator's shared tier
// is backed by a store that outlives the campaign it can hold entries of
// earlier campaigns, which no run message knows about — so workers ask
// about every key, warm or not, and a resubmit is served from the store.
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
		}
		return tap.count(dist.MsgCacheGet), hits, res
	}

	gets, hits, first := submit()
	if gets == 0 || hits != 0 {
		t.Fatalf("cold store: %d cache-gets, %d hits; want the worker to ask (nothing is warm) and miss", gets, hits)
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
