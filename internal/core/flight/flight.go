// Package flight is the offline campaign profiler: it ingests one run's
// trace spans, flight-recorder event log, and perf sample series, and
// answers "where did the time go?" — the campaign's critical path, how
// busy each worker slot was, the item-duration and queue-wait tails,
// and what each savings feature (cache, early stopping)
// actually bought. `zebraconf -mode profile` renders the
// analysis; `-mode trends` compares the compact per-run summaries the
// ledger keeps across runs.
//
// Every input is optional: a run traced without -events still yields a
// critical path, an event log without a trace still yields worker
// timelines, and both degrade gracefully when absent. Nothing here
// touches the equivalence invariant — the profiler only explains time.
package flight

import (
	"fmt"
	"os"
	"sort"

	"zebraconf/internal/obs"
)

// Run is one campaign's loaded observability artifacts.
type Run struct {
	Spans  []obs.SpanRecord
	Events []obs.EventRecord
	Perf   []obs.PerfSample
}

// Load reads a run's artifacts from disk. Any path may be empty
// (artifact absent); a named file must parse.
func Load(tracePath, eventsPath, perfPath string) (*Run, error) {
	r := &Run{}
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, fmt.Errorf("flight: trace: %w", err)
		}
		r.Spans, err = obs.ReadTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("flight: trace %s: %w", tracePath, err)
		}
	}
	if eventsPath != "" {
		f, err := os.Open(eventsPath)
		if err != nil {
			return nil, fmt.Errorf("flight: events: %w", err)
		}
		r.Events, err = obs.ReadEvents(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("flight: events %s: %w", eventsPath, err)
		}
	}
	if perfPath != "" {
		f, err := os.Open(perfPath)
		if err != nil {
			return nil, fmt.Errorf("flight: perf: %w", err)
		}
		r.Perf, err = obs.ReadPerf(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("flight: perf %s: %w", perfPath, err)
		}
	}
	if len(r.Spans) == 0 && len(r.Events) == 0 && len(r.Perf) == 0 {
		return nil, fmt.Errorf("flight: no artifacts to analyze (need -trace, -events, or -perf output)")
	}
	return r, nil
}

// PathStep is one span along the critical path, time order, root first.
type PathStep struct {
	Name  string
	DurUS int64
	// SelfUS is the step's un-blamed time: its duration minus what its
	// own chained children account for (the whole duration at a leaf).
	SelfUS int64
	// Depth is the span's nesting level under the root (for indenting).
	Depth int
	// Test / Param / Item echo the span attrs a repro needs (empty or
	// zero when the span carries none).
	Test  string
	Param string
	Item  int64
	Attrs map[string]any
}

// ItemStat is one completed work item, from EvItemComplete.
type ItemStat struct {
	Item    int64
	Test    string
	Worker  int64 // -1 in-process (no worker attribution)
	Seconds float64
}

// WorkerStat is one execution lane's utilization over the run. In dist
// mode each worker slot gets a row; in-process runs collapse to a
// single aggregate "pool" row (Slot == -1).
type WorkerStat struct {
	Slot int64
	// BusyUS is the union of this lane's dispatch→complete intervals —
	// wall time with at least one item in flight, so per-worker
	// parallelism does not overcount.
	BusyUS int64
	Items  int
	// Timeline is the lane's busy/idle occupancy bucketed over the run
	// window (values in [0,1]), ready for sparkline rendering.
	Timeline []float64
}

// Savings aggregates what each optimization contributed, from events (the
// final perf sample stands in for executions saved when no campaign_finish
// was logged).
type Savings struct {
	CacheHits         map[string]int64 // by scope: local | shared | coalesced
	TrialsSavedEarly  int64
	TrialsReallocated int64
	ExecutionsSaved   int64
}

// Analysis is the full offline profile of one run.
type Analysis struct {
	// MakespanUS spans the earliest to latest observed timestamp across
	// all artifacts.
	MakespanUS int64
	// Phases maps phase name to its wall duration (from phase spans, or
	// phase events when the run had no trace).
	Phases map[string]float64
	// CriticalPath walks root → leaf along the latest-finisher chain;
	// CriticalPathUS is the root step's duration.
	CriticalPath   []PathStep
	CriticalPathUS int64
	// Items is every completed work item, slowest first.
	Items            []ItemStat
	ItemP50, ItemP95 float64
	// Workers has one row per execution lane (dist slots, or one
	// aggregate row in-process), slot order.
	Workers []WorkerStat
	// QueueWaitP95 is estimated from the final perf sample's wait
	// histograms (0 without -perf).
	QueueWaitP95 float64
	Savings      Savings
	// UtilSeries / CacheSeries / HeapSeries are the perf sampler's
	// time series, for sparklines (nil without -perf).
	UtilSeries  []float64
	CacheSeries []float64
	HeapSeries  []float64
}

// timelineBuckets is the sparkline resolution for worker occupancy.
const timelineBuckets = 60

// Analyze profiles a loaded run.
func Analyze(r *Run) *Analysis {
	a := &Analysis{Phases: map[string]float64{}}
	a.analyzeSpans(r.Spans)
	a.analyzeEvents(r.Events)
	a.analyzePerf(r.Perf)
	return a
}

func attrString(attrs map[string]any, key string) string {
	if v, ok := attrs[key].(string); ok {
		return v
	}
	return ""
}

func attrInt(attrs map[string]any, key string) (int64, bool) {
	switch v := attrs[key].(type) {
	case int64:
		return v, true
	case float64: // JSON round-trip decodes numbers as float64
		return int64(v), true
	}
	return 0, false
}

func attrFloat(attrs map[string]any, key string) (float64, bool) {
	switch v := attrs[key].(type) {
	case float64:
		return v, true
	case int64:
		return float64(v), true
	}
	return 0, false
}

func (a *Analysis) analyzeSpans(spans []obs.SpanRecord) {
	if len(spans) == 0 {
		return
	}
	byID := make(map[obs.SpanID]*obs.SpanRecord, len(spans))
	children := make(map[obs.SpanID][]*obs.SpanRecord)
	var minStart, maxEnd int64
	minStart = spans[0].StartUS
	for i := range spans {
		s := &spans[i]
		byID[s.Span] = s
		if s.StartUS < minStart {
			minStart = s.StartUS
		}
		if end := s.StartUS + s.DurUS; end > maxEnd {
			maxEnd = end
		}
	}
	var roots []*obs.SpanRecord
	for i := range spans {
		s := &spans[i]
		if s.Parent == obs.NoSpan || byID[s.Parent] == nil {
			// True roots and orphans (a worker fragment whose parent was
			// lost) both anchor their own subtree.
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if span := maxEnd - minStart; span > a.MakespanUS {
		a.MakespanUS = span
	}

	// Phase durations from phase spans.
	for i := range spans {
		s := &spans[i]
		if s.Name == "phase" {
			if p := attrString(s.Attrs, "phase"); p != "" {
				a.Phases[p] += float64(s.DurUS) / 1e6
			}
		}
	}

	// Critical path: from the latest-ending root, descend into the
	// child that finished last (what the parent was waiting on when it
	// ended), then walk backward through the siblings that gated that
	// child's start — a sibling ending at or before the start is the
	// dependency (a finished pre-run, a drained slot) the chain was
	// serialized behind. The result is the run's longest wait chain
	// through pre-runs, items, and confirmation rounds, in time order.
	var root *obs.SpanRecord
	for _, s := range roots {
		if root == nil || s.StartUS+s.DurUS > root.StartUS+root.DurUS {
			root = s
		}
	}
	if root == nil {
		return
	}
	a.CriticalPathUS = root.DurUS
	a.walkPath(root, 0, children)
}

// walkPath appends s and its critical descendants to the path. Spans
// holding under 1% of the critical path are listed but not expanded —
// their internal chains are noise at campaign scale.
func (a *Analysis) walkPath(s *obs.SpanRecord, depth int, children map[obs.SpanID][]*obs.SpanRecord) {
	end := func(r *obs.SpanRecord) int64 { return r.StartUS + r.DurUS }
	kids := children[s.Span]
	if depth > 0 && s.DurUS*100 < a.CriticalPathUS {
		kids = nil
	}
	// Backward wait chain through the children: the latest finisher,
	// then repeatedly the latest-ending sibling that finished before the
	// current segment started.
	var segs []*obs.SpanRecord
	var cur *obs.SpanRecord
	for _, c := range kids {
		if cur == nil || end(c) > end(cur) {
			cur = c
		}
	}
	for cur != nil {
		segs = append(segs, cur)
		var pred *obs.SpanRecord
		for _, c := range kids {
			if c != cur && end(c) <= cur.StartUS && (pred == nil || end(c) > end(pred)) {
				pred = c
			}
		}
		cur = pred
	}
	// segs was collected newest-first; the path reads in time order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}

	step := PathStep{
		Name:  s.Name,
		DurUS: s.DurUS,
		Depth: depth,
		Test:  attrString(s.Attrs, "test"),
		Param: attrString(s.Attrs, "param"),
		Attrs: s.Attrs,
	}
	if id, ok := attrInt(s.Attrs, "item"); ok {
		step.Item = id
	}
	step.SelfUS = s.DurUS
	for _, seg := range segs {
		step.SelfUS -= seg.DurUS
	}
	if step.SelfUS < 0 {
		step.SelfUS = 0
	}
	a.CriticalPath = append(a.CriticalPath, step)
	for _, seg := range segs {
		a.walkPath(seg, depth+1, children)
	}
}

// interval is one busy stretch on an execution lane.
type interval struct{ start, end int64 }

// busyUnion sums the union of possibly-overlapping intervals.
func busyUnion(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curStart, curEnd := ivs[0].start, ivs[0].end
	for _, iv := range ivs[1:] {
		if iv.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = iv.start, iv.end
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	return total + curEnd - curStart
}

// occupancy buckets the fraction of each of n equal slices of
// [lo, hi) covered by at least one interval.
func occupancy(ivs []interval, lo, hi int64, n int) []float64 {
	if hi <= lo || n <= 0 {
		return nil
	}
	out := make([]float64, n)
	width := float64(hi-lo) / float64(n)
	for _, iv := range ivs {
		s, e := float64(iv.start-lo), float64(iv.end-lo)
		if e <= s {
			continue
		}
		first := int(s / width)
		last := int((e - 1e-9) / width)
		for b := first; b <= last && b < n; b++ {
			if b < 0 {
				continue
			}
			bLo, bHi := float64(b)*width, float64(b+1)*width
			olo, ohi := s, e
			if olo < bLo {
				olo = bLo
			}
			if ohi > bHi {
				ohi = bHi
			}
			if ohi > olo {
				out[b] += (ohi - olo) / width
			}
		}
	}
	for i, v := range out {
		if v > 1 {
			out[i] = 1
		}
	}
	return out
}

func (a *Analysis) analyzeEvents(events []obs.EventRecord) {
	if len(events) == 0 {
		return
	}
	var minT, maxT int64
	minT = events[0].TimeUS
	for _, e := range events {
		if e.TimeUS < minT {
			minT = e.TimeUS
		}
		if e.TimeUS > maxT {
			maxT = e.TimeUS
		}
	}
	if span := maxT - minT; span > a.MakespanUS {
		a.MakespanUS = span
	}

	// Phase durations from events, when the run had no trace.
	if len(a.Phases) == 0 {
		starts := map[string]int64{}
		for _, e := range events {
			p := attrString(e.Attrs, "phase")
			switch e.Event {
			case obs.EvPhaseStart:
				starts[p] = e.TimeUS
			case obs.EvPhaseFinish:
				if t0, ok := starts[p]; ok {
					a.Phases[p] += float64(e.TimeUS-t0) / 1e6
				}
			}
		}
	}

	// Reconstruct dispatch→complete intervals per lane. The dist
	// coordinator attributes both events to a worker slot; the
	// in-process pool carries no worker attr and collapses to lane -1.
	type flight struct {
		start int64
		lane  int64
	}
	open := map[int64]flight{} // item ID → in-flight
	lanes := map[int64]*WorkerStat{}
	lane := func(slot int64) *WorkerStat {
		w := lanes[slot]
		if w == nil {
			w = &WorkerStat{Slot: slot}
			lanes[slot] = w
		}
		return w
	}
	ivs := map[int64][]interval{}
	for _, e := range events {
		switch e.Event {
		case obs.EvItemDispatch:
			item, ok := attrInt(e.Attrs, "item")
			if !ok {
				continue
			}
			slot := int64(-1)
			if w, ok := attrInt(e.Attrs, "worker"); ok {
				slot = w
			}
			open[item] = flight{start: e.TimeUS, lane: slot}
		case obs.EvItemComplete:
			item, ok := attrInt(e.Attrs, "item")
			if stored, _ := e.Attrs["stored"].(bool); !ok || stored {
				continue // a stored result occupied no lane
			}
			slot := int64(-1)
			if w, ok := attrInt(e.Attrs, "worker"); ok {
				slot = w
			}
			st := ItemStat{Item: item, Test: attrString(e.Attrs, "test"), Worker: slot}
			st.Seconds, _ = attrFloat(e.Attrs, "elapsed_s")
			early, _ := attrInt(e.Attrs, "trials_saved_early")
			realloc, _ := attrInt(e.Attrs, "trials_reallocated")
			a.Savings.TrialsSavedEarly += early
			a.Savings.TrialsReallocated += realloc
			a.Items = append(a.Items, st)
			w := lane(slot)
			w.Items++
			if f, ok := open[item]; ok {
				delete(open, item)
				ivs[f.lane] = append(ivs[f.lane], interval{f.start, e.TimeUS})
			} else if st.Seconds > 0 {
				// Completion without a matched dispatch (a stitched or
				// truncated log): reconstruct the interval from elapsed_s.
				ivs[slot] = append(ivs[slot], interval{e.TimeUS - int64(st.Seconds*1e6), e.TimeUS})
			}
		case obs.EvCacheHit:
			if a.Savings.CacheHits == nil {
				a.Savings.CacheHits = map[string]int64{}
			}
			scope := attrString(e.Attrs, "scope")
			if scope == "" {
				scope = "local"
			}
			a.Savings.CacheHits[scope]++
		case obs.EvCampaignFinish:
			if saved, ok := attrInt(e.Attrs, "executions_saved"); ok {
				a.Savings.ExecutionsSaved = saved
			}
		}
	}

	for slot, w := range lanes {
		w.BusyUS = busyUnion(append([]interval(nil), ivs[slot]...))
		w.Timeline = occupancy(ivs[slot], minT, maxT, timelineBuckets)
		a.Workers = append(a.Workers, *w)
	}
	sort.Slice(a.Workers, func(i, j int) bool { return a.Workers[i].Slot < a.Workers[j].Slot })

	// Exact item-duration quantiles from completion events.
	sort.Slice(a.Items, func(i, j int) bool { return a.Items[i].Seconds > a.Items[j].Seconds })
	if n := len(a.Items); n > 0 {
		sorted := make([]float64, n)
		for i, it := range a.Items {
			sorted[i] = it.Seconds
		}
		sort.Float64s(sorted)
		a.ItemP50 = sorted[n/2]
		a.ItemP95 = sorted[min(n-1, n*95/100)]
	}
}

func (a *Analysis) analyzePerf(samples []obs.PerfSample) {
	if len(samples) == 0 {
		return
	}
	last := samples[len(samples)-1]
	if span := last.TimeUS - samples[0].TimeUS; span > a.MakespanUS {
		a.MakespanUS = span
	}
	for _, s := range samples {
		a.UtilSeries = append(a.UtilSeries, s.Utilization())
		a.CacheSeries = append(a.CacheSeries, s.CacheHitRate())
		a.HeapSeries = append(a.HeapSeries, float64(s.HeapAllocBytes))
	}
	// The queue-wait tail, which events do not carry, from the final
	// registry snapshot.
	if wait := last.Metrics.Hists[obs.MSchedQueueWait]; wait.Count > 0 {
		a.QueueWaitP95 = wait.Quantile(0.95)
	}
	if a.Savings.ExecutionsSaved == 0 {
		a.Savings.ExecutionsSaved = last.Saved
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
