package flight

import (
	"fmt"
	"strings"
	"testing"

	"zebraconf/internal/core/ledger"
	"zebraconf/internal/obs"
)

// span builds one SpanRecord for hand-built trees.
func span(id, parent obs.SpanID, name string, start, dur int64, attrs map[string]any) obs.SpanRecord {
	return obs.SpanRecord{Span: id, Parent: parent, Name: name, StartUS: start, DurUS: dur, Attrs: attrs}
}

func TestCriticalPathInProcessTree(t *testing.T) {
	// campaign(0..100) -> phase instances(5..95) -> {testA(10..40),
	// testB(20..90)} -> testB -> pool(30..85). The chain must blame
	// testB then its pool, never the earlier-finishing testA.
	spans := []obs.SpanRecord{
		// JSONL order: children end (and are written) before parents.
		span(4, 3, "pool", 30, 55, map[string]any{"test": "TestB"}),
		span(3, 2, "test", 20, 70, map[string]any{"test": "TestB", "item": float64(7)}),
		span(5, 2, "test", 10, 30, map[string]any{"test": "TestA", "item": float64(3)}),
		span(2, 1, "phase", 5, 90, map[string]any{"phase": "instances"}),
		span(1, 0, "campaign", 0, 100, map[string]any{"app": "minihdfs"}),
	}
	a := Analyze(&Run{Spans: spans})
	if a.CriticalPathUS != 100 {
		t.Errorf("CriticalPathUS = %d, want 100", a.CriticalPathUS)
	}
	var names []string
	for _, s := range a.CriticalPath {
		names = append(names, s.Name)
	}
	want := []string{"campaign", "phase", "test", "pool"}
	if strings.Join(names, ">") != strings.Join(want, ">") {
		t.Fatalf("critical path = %v, want %v", names, want)
	}
	if a.CriticalPath[2].Test != "TestB" {
		t.Errorf("critical path blamed %q, want TestB", a.CriticalPath[2].Test)
	}
	if a.CriticalPath[2].Item != 7 {
		t.Errorf("critical path item = %d, want 7", a.CriticalPath[2].Item)
	}
	// Self time: campaign 100 - phase 90 = 10.
	if a.CriticalPath[0].SelfUS != 10 {
		t.Errorf("campaign self = %d, want 10", a.CriticalPath[0].SelfUS)
	}
	// The leaf owns its whole duration.
	if a.CriticalPath[3].SelfUS != 55 {
		t.Errorf("pool self = %d, want 55", a.CriticalPath[3].SelfUS)
	}
	if a.Phases["instances"] != 9e-5 { // 90 us
		t.Errorf("phase seconds = %v, want 9e-5", a.Phases["instances"])
	}
}

func TestCriticalPathStitchedWorkerTree(t *testing.T) {
	// The workers=2 stitched shape: campaign -> phase -> distribute ->
	// {worker 0, worker 1} -> item... The slow item on worker 1 must be
	// on the path.
	spans := []obs.SpanRecord{
		span(10, 5, "item", 30, 55, map[string]any{"test": "TestSlow", "item": float64(9)}),
		span(11, 4, "item", 15, 20, map[string]any{"test": "TestFast", "item": float64(2)}),
		span(4, 3, "worker", 10, 40, map[string]any{"slot": float64(0)}),
		span(5, 3, "worker", 10, 80, map[string]any{"slot": float64(1)}),
		span(3, 2, "distribute", 8, 86, map[string]any{"workers": float64(2)}),
		span(2, 1, "phase", 5, 92, map[string]any{"phase": "instances"}),
		span(1, 0, "campaign", 0, 100, nil),
	}
	a := Analyze(&Run{Spans: spans})
	var names []string
	for _, s := range a.CriticalPath {
		names = append(names, s.Name)
	}
	want := "campaign>phase>distribute>worker>item"
	if got := strings.Join(names, ">"); got != want {
		t.Fatalf("critical path = %s, want %s", got, want)
	}
	leaf := a.CriticalPath[len(a.CriticalPath)-1]
	if leaf.Test != "TestSlow" || leaf.Item != 9 {
		t.Errorf("critical path leaf = %+v, want TestSlow item 9", leaf)
	}
}

func TestCriticalPathOrphanSpans(t *testing.T) {
	// A worker trace fragment whose parent never made it into the file:
	// the orphan anchors its own subtree, and the latest-ending root
	// wins.
	spans := []obs.SpanRecord{
		span(2, 999, "item", 50, 100, map[string]any{"test": "TestOrphan"}), // parent 999 unknown
		span(1, 0, "campaign", 0, 60, nil),
	}
	a := Analyze(&Run{Spans: spans})
	if len(a.CriticalPath) != 1 || a.CriticalPath[0].Name != "item" {
		t.Fatalf("critical path = %+v, want the later-ending orphan item", a.CriticalPath)
	}
	if a.MakespanUS != 150 {
		t.Errorf("makespan = %d, want 150", a.MakespanUS)
	}
}

func ev(t int64, event string, attrs map[string]any) obs.EventRecord {
	return obs.EventRecord{TimeUS: t, Event: event, Attrs: attrs}
}

func TestWorkerTimelinesFromEvents(t *testing.T) {
	events := []obs.EventRecord{
		ev(0, obs.EvItemDispatch, map[string]any{"item": float64(1), "test": "A", "worker": float64(0)}),
		ev(0, obs.EvItemDispatch, map[string]any{"item": float64(2), "test": "B", "worker": float64(1)}),
		ev(40, obs.EvItemComplete, map[string]any{"item": float64(2), "test": "B", "worker": float64(1), "elapsed_s": 40e-6}),
		// A log written when the coordinator still sharded its queue
		// carries steal events; they are skipped like any unknown event.
		ev(50, "steal", map[string]any{"item": float64(3), "worker": float64(1)}),
		ev(50, obs.EvItemDispatch, map[string]any{"item": float64(3), "test": "C", "worker": float64(1)}),
		ev(100, obs.EvItemComplete, map[string]any{"item": float64(1), "test": "A", "worker": float64(0), "elapsed_s": 100e-6}),
		ev(100, obs.EvItemComplete, map[string]any{"item": float64(3), "test": "C", "worker": float64(1), "elapsed_s": 50e-6}),
	}
	a := Analyze(&Run{Events: events})
	if len(a.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(a.Workers))
	}
	w0, w1 := a.Workers[0], a.Workers[1]
	if w0.Slot != 0 || w1.Slot != 1 {
		t.Fatalf("worker slots = %d,%d want 0,1", w0.Slot, w1.Slot)
	}
	if w0.BusyUS != 100 {
		t.Errorf("worker 0 busy = %d, want 100", w0.BusyUS)
	}
	// Worker 1: [0,40] + [50,100] = 90 with an idle gap.
	if w1.BusyUS != 90 {
		t.Errorf("worker 1 busy = %d, want 90", w1.BusyUS)
	}
	if w0.Items != 1 || w1.Items != 2 {
		t.Errorf("items = %d,%d want 1,2", w0.Items, w1.Items)
	}
	if len(a.Items) != 3 || a.Items[0].Seconds < a.Items[1].Seconds {
		t.Fatalf("items not sorted slowest-first: %+v", a.Items)
	}
}

func TestInProcessEventsCollapseToPoolLane(t *testing.T) {
	events := []obs.EventRecord{
		ev(0, obs.EvItemDispatch, map[string]any{"item": float64(1), "test": "A"}),
		ev(10, obs.EvItemDispatch, map[string]any{"item": float64(2), "test": "B"}),
		ev(60, obs.EvItemComplete, map[string]any{"item": float64(1), "test": "A", "elapsed_s": 60e-6}),
		ev(80, obs.EvItemComplete, map[string]any{"item": float64(2), "test": "B", "elapsed_s": 70e-6}),
	}
	a := Analyze(&Run{Events: events})
	if len(a.Workers) != 1 || a.Workers[0].Slot != -1 {
		t.Fatalf("expected single pool lane, got %+v", a.Workers)
	}
	// Overlapping intervals [0,60] and [10,80] union to 80.
	if a.Workers[0].BusyUS != 80 {
		t.Errorf("pool busy = %d, want 80", a.Workers[0].BusyUS)
	}
}

func TestBusyUnion(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},
		{[]interval{{0, 10}, {20, 30}}, 20},
		{[]interval{{20, 30}, {0, 10}, {5, 12}}, 22},
		{[]interval{{0, 10}, {2, 8}}, 10},
	}
	for i, c := range cases {
		if got := busyUnion(append([]interval(nil), c.ivs...)); got != c.want {
			t.Errorf("case %d: busyUnion = %d, want %d", i, got, c.want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if s := Sparkline(nil, 1, 10); s != "" {
		t.Errorf("empty sparkline = %q", s)
	}
	s := Sparkline([]float64{0, 0.5, 1}, 1, 3)
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("sparkline width = %d, want 3", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Errorf("sparkline = %q, want low first / full last", s)
	}
	// Wider than data clamps to data length.
	if got := len([]rune(Sparkline([]float64{1, 1}, 1, 10))); got != 2 {
		t.Errorf("overwide sparkline has %d cols, want 2", got)
	}
}

func rec(app, digest string, makespan float64, perf *obs.PerfSummary) ledger.Record {
	return ledger.Record{
		RunID: fmt.Sprintf("r-%s-%s-%g", app, digest, makespan), App: app,
		FlagsDigest: digest, MakespanSeconds: makespan, Executions: 100, Perf: perf,
	}
}

func TestTrendsDetectsRegression(t *testing.T) {
	recs := []ledger.Record{
		rec("minihdfs", "aaaa", 10.0, nil),
		rec("minihdfs", "aaaa", 10.2, nil),
		rec("minihdfs", "aaaa", 9.8, nil),
		rec("minihdfs", "aaaa", 15.0, nil), // +50% over ~10s baseline
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	if !tr.Regressed() {
		t.Fatalf("50%% makespan regression not flagged: %+v", tr)
	}
	var found bool
	for _, f := range tr.Flags {
		if f.Metric == "makespan_seconds" && f.Regression && f.Drift > 0.4 {
			found = true
		}
	}
	if !found {
		t.Errorf("makespan flag missing: %+v", tr.Flags)
	}
}

func TestTrendsCleanOnStableRuns(t *testing.T) {
	recs := []ledger.Record{
		rec("minihdfs", "aaaa", 10.0, nil),
		rec("minihdfs", "aaaa", 10.5, nil),
		rec("minihdfs", "aaaa", 10.2, nil),
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	if tr.Regressed() || len(tr.Flags) != 0 {
		t.Fatalf("stable runs flagged: %+v", tr.Flags)
	}
	if tr.Compared != 2 {
		t.Errorf("compared = %d, want 2", tr.Compared)
	}
}

func TestTrendsExactlyAtThresholdIsClean(t *testing.T) {
	// Baseline 10.0, latest 11.5: drift is exactly 0.15 — strictly
	// greater than is required, so this is noise, not drift.
	recs := []ledger.Record{
		rec("minihdfs", "aaaa", 10.0, nil),
		rec("minihdfs", "aaaa", 11.5, nil),
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	if len(tr.Flags) != 0 {
		t.Fatalf("exactly-at-threshold drift flagged: %+v", tr.Flags)
	}
	// One hair past must flag.
	recs[1].MakespanSeconds = 11.51
	tr = Trends(recs, "minihdfs", 5, 0.15)
	if !tr.Regressed() {
		t.Fatal("drift just past threshold not flagged")
	}
}

func TestTrendsTooFewRuns(t *testing.T) {
	tr := Trends([]ledger.Record{rec("minihdfs", "aaaa", 10, nil)}, "minihdfs", 5, 0.15)
	if tr.Regressed() || tr.Note == "" {
		t.Fatalf("single run should be trivially clean with a note: %+v", tr)
	}
	tr = Trends(nil, "minihdfs", 5, 0.15)
	if tr.Regressed() || tr.Note == "" {
		t.Fatalf("empty ledger should be trivially clean with a note: %+v", tr)
	}
}

func TestTrendsMismatchedFlagsExcluded(t *testing.T) {
	// The slow prior run used different flags: it is signal about a
	// different configuration, not this one's baseline.
	recs := []ledger.Record{
		rec("minihdfs", "bbbb", 30.0, nil), // different digest — excluded
		rec("minihdfs", "aaaa", 10.0, nil),
		rec("minihdfs", "aaaa", 10.4, nil),
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	if len(tr.Flags) != 0 {
		t.Fatalf("mismatched-flags run polluted the baseline: %+v", tr.Flags)
	}
	if tr.Skipped != 1 || tr.Compared != 1 {
		t.Errorf("skipped=%d compared=%d, want 1 and 1", tr.Skipped, tr.Compared)
	}
	// All priors mismatched → nothing to trend, clean with note.
	recs = []ledger.Record{
		rec("minihdfs", "bbbb", 30.0, nil),
		rec("minihdfs", "aaaa", 10.0, nil),
	}
	tr = Trends(recs, "minihdfs", 5, 0.15)
	if tr.Note == "" || tr.Regressed() {
		t.Fatalf("all-mismatched priors should be clean with note: %+v", tr)
	}
}

func TestTrendsPerfMetrics(t *testing.T) {
	perf := func(p95, util float64) *obs.PerfSummary {
		return &obs.PerfSummary{P95ItemSeconds: p95, UtilizationPct: util}
	}
	recs := []ledger.Record{
		rec("minihdfs", "aaaa", 10.0, perf(2.0, 80)),
		rec("minihdfs", "aaaa", 10.0, perf(2.0, 80)),
		rec("minihdfs", "aaaa", 10.0, perf(3.0, 50)), // p95 +50%, util -37.5%
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	got := map[string]TrendFlag{}
	for _, f := range tr.Flags {
		got[f.Metric] = f
	}
	if f, ok := got["p95_item_seconds"]; !ok || !f.Regression {
		t.Errorf("p95 regression missing: %+v", tr.Flags)
	}
	// Utilization DOWN is the regression direction.
	if f, ok := got["utilization_pct"]; !ok || !f.Regression || f.Drift >= 0 {
		t.Errorf("utilization regression missing or misdirected: %+v", tr.Flags)
	}
	// Records without perf data simply do not contribute perf metrics.
	recs[0].Perf = nil
	recs[1].Perf = nil
	tr = Trends(recs, "minihdfs", 5, 0.15)
	for _, f := range tr.Flags {
		if f.Metric == "p95_item_seconds" || f.Metric == "utilization_pct" {
			t.Errorf("perf metric trended without baseline perf data: %+v", f)
		}
	}
}

func TestRenderProfileSmoke(t *testing.T) {
	spans := []obs.SpanRecord{
		span(2, 1, "phase", 5, 90, map[string]any{"phase": "instances"}),
		span(1, 0, "campaign", 0, 100, map[string]any{"app": "minihdfs"}),
	}
	events := []obs.EventRecord{
		ev(0, obs.EvItemDispatch, map[string]any{"item": float64(1), "test": "A", "worker": float64(0)}),
		ev(90, obs.EvItemComplete, map[string]any{"item": float64(1), "test": "A", "worker": float64(0), "elapsed_s": 1.5}),
		ev(95, obs.EvCacheHit, map[string]any{"scope": "shared"}),
	}
	a := Analyze(&Run{Spans: spans, Events: events})
	var b strings.Builder
	RenderProfile(&b, a)
	out := b.String()
	for _, want := range []string{"Campaign profile", "Critical path", "campaign", "Worker utilization", "worker 0", "cache hits (shared)"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile report missing %q:\n%s", want, out)
		}
	}
}
