package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/obs"
)

// Span names. Every span is recorded by a wrapper in this package around
// a call into one layer; nothing inside the program is instrumented.
const (
	spanPass     = "pass"          // one timed pass
	spanCampaign = "campaign"      // one campaign.Run, child of its pass
	spanBody     = "apps.body"     // one UnitTest.Run, child of its campaign
	spanGet      = "diskcache.get" // one memo.Backend Get
	spanPut      = "diskcache.put" // one memo.Backend Put
	spanDistRun  = "dist.run"      // Distributor Begin → Drain return
	spanSubmit   = "dist.submit"   // zero-length marker: one item handed to the coordinator
)

// span is one recorded interval: name, start, end, the span that caused
// it and the pass it belongs to, plus what is needed to stitch worker
// spans to coordinator items.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds, comparable across processes on one host
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Pass   int    `json:"pass"`
	App    string `json:"app,omitempty"`
	Test   string `json:"test,omitempty"`
	Item   int    `json:"item,omitempty"`
	Hit    bool   `json:"hit,omitempty"`
	PID    int    `json:"pid"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op and wrappers are not installed.
type recorder struct {
	dir string // where workers leave their span files

	mu    sync.Mutex
	pass  int
	spans []span
}

// selfPID is read once: recorder.add sits on every test body's path.
var selfPID = os.Getpid()

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	s.PID = selfPID
	r.mu.Lock()
	s.Pass = r.pass
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) setPass(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pass = i
	r.mu.Unlock()
}

// wrapApp returns a copy of app whose test bodies record a span each.
func (r *recorder) wrapApp(app *harness.App) *harness.App {
	if r == nil {
		return app
	}
	wrapped := *app
	wrapped.Tests = make([]harness.UnitTest, len(app.Tests))
	for i, t := range app.Tests {
		body, name := t.Run, t.Name
		t.Run = func(ht *harness.T) {
			start := time.Now()
			defer func() {
				r.add(span{Name: spanBody, Parent: spanCampaign, App: app.Name, Test: name,
					Start: start.UnixNano(), End: time.Now().UnixNano()})
			}()
			body(ht)
		}
		wrapped.Tests[i] = t
	}
	return &wrapped
}

// writeSpans dumps spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// stitched returns the coordinator's spans plus every worker's, the
// latter assigned to the pass and campaign whose window contains them and
// to the item that was submitted for their test.
func (r *recorder) stitched() ([]span, error) {
	r.mu.Lock()
	all := append([]span(nil), r.spans...)
	r.mu.Unlock()
	files, err := filepath.Glob(filepath.Join(r.dir, "worker-*.jsonl"))
	if err != nil {
		return nil, err
	}
	type itemKey struct {
		pass      int
		app, test string
	}
	items := make(map[itemKey]int)
	var runs []span
	for _, s := range all {
		switch s.Name {
		case spanSubmit:
			items[itemKey{s.Pass, s.App, s.Test}] = s.Item
		case spanDistRun:
			runs = append(runs, s)
		}
	}
	for _, path := range files {
		ws, err := readSpans(path)
		if err != nil {
			return nil, err
		}
		for _, s := range ws {
			for _, run := range runs {
				if s.App == run.App && s.Start >= run.Start && s.End <= run.End {
					s.Pass = run.Pass
					s.Item = items[itemKey{run.Pass, s.App, s.Test}]
					all = append(all, s)
					break
				}
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all, nil
}

// timedBackend times a cache tier from outside.
type timedBackend struct {
	next memo.Backend
	rec  *recorder
}

func (b *timedBackend) Get(k memo.Key) (memo.Result, bool) {
	start := time.Now()
	res, ok := b.next.Get(k)
	b.rec.add(span{Name: spanGet, Parent: spanCampaign, App: k.App, Test: k.Test, Hit: ok,
		Start: start.UnixNano(), End: time.Now().UnixNano()})
	return res, ok
}

func (b *timedBackend) Put(k memo.Key, res memo.Result) {
	start := time.Now()
	b.next.Put(k, res)
	b.rec.add(span{Name: spanPut, Parent: spanCampaign, App: k.App, Test: k.Test,
		Start: start.UnixNano(), End: time.Now().UnixNano()})
}

// distAdapter bridges campaign.Distributor onto the dist coordinator, as
// the CLI does, and records when each item was submitted and how long the
// campaign waited on the coordinator.
type distAdapter struct {
	rec   *recorder
	app   string
	coord *dist.Coordinator
	run   *dist.Run
	err   error
	begin time.Time
}

func (d *distAdapter) Begin(parent obs.SpanID, total int) {
	d.begin = time.Now()
	d.run, d.err = d.coord.Start(parent, total)
}

func (d *distAdapter) Submit(item campaign.WorkItem) {
	if d.run == nil {
		return
	}
	now := time.Now().UnixNano()
	d.rec.add(span{Name: spanSubmit, Parent: spanDistRun, App: d.app, Test: item.Test, Item: item.ID,
		Start: now, End: now})
	d.run.Submit(item)
}

func (d *distAdapter) Drain() []campaign.ItemResult {
	if d.run == nil {
		return nil
	}
	res, err := d.run.Drain()
	d.err = err
	d.rec.add(span{Name: spanDistRun, Parent: spanCampaign, App: d.app,
		Start: d.begin.UnixNano(), End: time.Now().UnixNano()})
	return res
}

// workerSet remembers every worker subprocess started, so the run can wait
// until each has been reaped: the coordinator reaps asynchronously, and
// RUSAGE_CHILDREN only counts children that have been waited for.
type workerSet struct {
	mu   sync.Mutex
	cmds []*exec.Cmd
}

var workers workerSet

func (w *workerSet) add(cmd *exec.Cmd) {
	w.mu.Lock()
	w.cmds = append(w.cmds, cmd)
	w.mu.Unlock()
}

// waitReaped blocks until every started worker has left the process
// table. Call only after the coordinator's Drain has returned.
func (w *workerSet) waitReaped() error {
	w.mu.Lock()
	cmds := w.cmds
	w.cmds = nil
	w.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for _, cmd := range cmds {
		if cmd.Process == nil {
			continue
		}
		proc := fmt.Sprintf("/proc/%d", cmd.Process.Pid)
		for {
			if _, err := os.Stat(proc); err != nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("worker pid %d still running 10 s after its campaign drained", cmd.Process.Pid)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// layerTotals is what the traced passes say about the layers.
type layerTotals struct {
	bodyS, selfS, idleS float64
	bodyCount           int
	getS, putS          float64
	getCount            int
	submitToResultS     float64
	passSeconds         []float64
}

// analyze folds the stitched spans of the traced passes into per-layer
// totals. Within a campaign, the spans of one test are its pre-run body
// (the first) and then its work item (the bodies and cache-tier calls
// after it, executed back to back on one slot), so slot occupancy follows
// from the wrappers' spans alone:
//
//	slot time = slots × campaign wall (in-process), or
//	            workers × dist.run (distributed: items only, the
//	            pre-runs stay on the coordinator's own slots)
//	busy      = Σ pre-run bodies + Σ [first item span start, last item span end]
//	idle      = slot time − busy
//	self      = busy − Σ body − Σ cache-tier spans
func analyze(spans []span, slots int) layerTotals {
	var t layerTotals
	type campKey struct {
		pass int
		app  string
	}
	type testKey struct {
		campKey
		test string
	}
	work := make(map[testKey][]span)
	submits := make(map[testKey]int64)
	distributed := make(map[campKey]bool)
	var slotTime, covered float64
	for _, s := range spans {
		ck := campKey{s.Pass, s.App}
		tk := testKey{ck, s.Test}
		switch s.Name {
		case spanPass:
			t.passSeconds = append(t.passSeconds, s.seconds())
		case spanBody:
			t.bodyS += s.seconds()
			t.bodyCount++
			work[tk] = append(work[tk], s)
		case spanGet:
			t.getS += s.seconds()
			t.getCount++
			work[tk] = append(work[tk], s)
		case spanPut:
			t.putS += s.seconds()
			work[tk] = append(work[tk], s)
		case spanSubmit:
			submits[tk] = s.Start
		case spanDistRun:
			distributed[ck] = true
			slotTime += float64(slots) * s.seconds()
		}
	}
	for _, s := range spans {
		if s.Name == spanCampaign && !distributed[campKey{s.Pass, s.App}] {
			slotTime += float64(slots) * s.seconds()
		}
	}
	var busy float64
	for k, ws := range work {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		item := ws
		if distributed[k.campKey] {
			// The coordinator's spans for this test are its pre-run; only
			// what the workers did occupies a worker slot.
			item = item[:0:0]
			for _, s := range ws {
				if s.PID != selfPID {
					item = append(item, s)
				}
			}
		} else {
			busy += ws[0].seconds()
			covered += ws[0].seconds()
			item = ws[1:]
		}
		if len(item) == 0 {
			continue
		}
		last := item[0].End
		for _, s := range item {
			covered += s.seconds()
			if s.End > last {
				last = s.End
			}
		}
		busy += float64(last-item[0].Start) / 1e9
		if at, ok := submits[k]; ok {
			t.submitToResultS += float64(last-at) / 1e9
		}
	}
	t.idleS = slotTime - busy
	t.selfS = busy - covered
	return t
}
