package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/obs"
)

// TestCampaignTraceAndMetricsIntegrity runs a small minihdfs campaign with
// full observability on and checks the acceptance properties: every trace
// span's parent resolves, the span tree nests campaign > phase > test >
// pool > pooled-run / instance > round, and the metric counters agree with
// the campaign result.
func TestCampaignTraceAndMetricsIntegrity(t *testing.T) {
	app, err := apps.ByName("minihdfs")
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf, eventBuf bytes.Buffer
	o := obs.New()
	o.Tracer = obs.NewTracer(&traceBuf)
	o.Events = obs.NewEventLog(&eventBuf)
	o.Status = obs.NewStatus()

	res := campaign.Run(app, campaign.Options{
		Params: []string{minihdfs.ParamPeerProtocolVersion, minihdfs.ParamReplication,
			minihdfs.ParamBlockSize, minihdfs.ParamClientRetries},
		Tests: []string{"TestWriteRead", "TestPipelineReplication"},
		Obs:   o,
	})
	if len(res.Reported) == 0 {
		t.Fatalf("campaign reported nothing; trace would be trivial")
	}

	recs, err := obs.ReadTrace(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}

	byID := map[obs.SpanID]obs.SpanRecord{}
	byName := map[string][]obs.SpanRecord{}
	for _, r := range recs {
		if _, dup := byID[r.Span]; dup {
			t.Fatalf("duplicate span id %d", r.Span)
		}
		byID[r.Span] = r
		byName[r.Name] = append(byName[r.Name], r)
	}

	// Every parent resolves.
	for _, r := range recs {
		if r.Parent != obs.NoSpan {
			if _, ok := byID[r.Parent]; !ok {
				t.Errorf("span %d (%s) has dangling parent %d", r.Span, r.Name, r.Parent)
			}
		}
	}

	// Exactly one campaign root; phases under it.
	if len(byName["campaign"]) != 1 {
		t.Fatalf("got %d campaign spans, want 1", len(byName["campaign"]))
	}
	root := byName["campaign"][0]
	if root.Parent != obs.NoSpan {
		t.Errorf("campaign span has parent %d", root.Parent)
	}
	if len(byName["phase"]) != 3 {
		t.Errorf("got %d phase spans, want 3", len(byName["phase"]))
	}
	for _, p := range byName["phase"] {
		if p.Parent != root.Span {
			t.Errorf("phase %v not under campaign", p.Attrs["phase"])
		}
	}

	// Structural nesting rules.
	parentName := func(r obs.SpanRecord) string { return byID[r.Parent].Name }
	for _, r := range byName["test"] {
		if parentName(r) != "phase" {
			t.Errorf("test span under %q, want phase", parentName(r))
		}
	}
	for _, r := range byName["pool"] {
		depth, _ := r.Attrs["depth"].(float64)
		switch p := parentName(r); {
		case depth == 0 && p != "test":
			t.Errorf("depth-0 pool span under %q, want test", p)
		case depth > 0 && p != "pool":
			t.Errorf("split pool span (depth %v) under %q, want pool", depth, p)
		}
	}
	for _, r := range byName["pooled-run"] {
		if parentName(r) != "pool" {
			t.Errorf("pooled-run span under %q, want pool", parentName(r))
		}
	}
	for _, r := range byName["instance"] {
		if p := parentName(r); p != "test" && p != "pool" {
			t.Errorf("instance span under %q, want test or pool", p)
		}
	}
	for _, r := range byName["round"] {
		if parentName(r) != "instance" {
			t.Errorf("round span under %q, want instance", parentName(r))
		}
		// Per-round attributes: hetero_failed is this round's hetero
		// outcome, homo_failures this round's delta — at most one failure
		// per homogeneous arm, never a cumulative count across rounds.
		if _, ok := r.Attrs["hetero_failed"].(bool); !ok {
			t.Errorf("round span missing hetero_failed bool: %+v", r.Attrs)
		}
		hf, ok := r.Attrs["homo_failures"].(float64)
		if !ok || hf < 0 || hf > 2 {
			t.Errorf("round span homo_failures = %v, want 0..2 (per-round delta over two arms)", r.Attrs["homo_failures"])
		}
	}
	// The unsafe verdict must be replayable from its lineage: at least one
	// instance span carries verdict=unsafe with app/test attributes set.
	foundUnsafe := false
	for _, r := range byName["instance"] {
		if r.Attrs["verdict"] == "unsafe" {
			foundUnsafe = true
			if r.Attrs["app"] != "minihdfs" || r.Attrs["test"] == "" || r.Attrs["seed"] == nil {
				t.Errorf("unsafe instance span lacks replay attrs: %+v", r.Attrs)
			}
		}
	}
	if !foundUnsafe {
		t.Errorf("no instance span carries verdict=unsafe despite %d reported params", len(res.Reported))
	}

	// Metrics agree with the campaign result.
	m := o.Metrics
	if got := m.CounterValue(obs.MVerdicts); got != int64(len(byName["instance"])) {
		t.Errorf("verdict counter %d != instance spans %d", got, len(byName["instance"]))
	}
	if got := m.CounterValue(obs.MVerdicts, "verdict", "filtered"); got != int64(res.FilteredByHypothesis) {
		t.Errorf("filtered counter %d != result %d", got, res.FilteredByHypothesis)
	}
	if got := m.CounterValue(obs.MVerdicts, "verdict", "homo-invalid"); got != int64(res.HomoInvalid) {
		t.Errorf("homo-invalid counter %d != result %d", got, res.HomoInvalid)
	}
	if got := m.CounterValue(obs.MFirstTrial); got != int64(res.FirstTrialSignals) {
		t.Errorf("first-trial counter %d != result %d", got, res.FirstTrialSignals)
	}
	if got := m.CounterValue(obs.MVerdicts, "verdict", "unsafe"); got < int64(len(res.Reported)) {
		t.Errorf("unsafe counter %d < reported params %d", got, len(res.Reported))
	}
	campaignExecs := m.CounterValue(obs.MExecutions) - m.CounterValue(obs.MExecutions, "arm", "prerun")
	if campaignExecs != res.Counts.Executed {
		t.Errorf("execution counters %d != result executed %d", campaignExecs, res.Counts.Executed)
	}
	if got := m.CounterValue(obs.MExecutions, "arm", "prerun"); got != int64(res.NumTests) {
		t.Errorf("prerun executions %d != tests %d", got, res.NumTests)
	}
	// Execution-cache counters: every saved execution is a cache hit, and
	// misses are the executions the campaign actually performed for
	// canonically-addressed runs (a subset of all executions).
	if res.Counts.ExecutionsSaved == 0 {
		t.Error("campaign saved no executions; the cache-counter checks are vacuous")
	}
	if res.Counts.ExecutionsSaved > 0 {
		hits := m.CounterValue(obs.MCacheHits, "app", "minihdfs", "scope", "local") +
			m.CounterValue(obs.MCacheHits, "app", "minihdfs", "scope", "shared") +
			m.CounterValue(obs.MCacheCoalesced, "app", "minihdfs")
		if hits != res.Counts.ExecutionsSaved {
			t.Errorf("cache hit counters %d != executions saved %d", hits, res.Counts.ExecutionsSaved)
		}
		if g := m.Gauge(obs.MCacheSaved, "app", "minihdfs").Value(); g != res.Counts.ExecutionsSaved {
			t.Errorf("saved gauge %v != executions saved %d", g, res.Counts.ExecutionsSaved)
		}
		if misses := m.CounterValue(obs.MCacheMisses, "app", "minihdfs"); misses <= 0 || misses > res.Counts.Executed {
			t.Errorf("cache misses %d outside (0, executed=%d]", misses, res.Counts.Executed)
		}
	}

	// The event log stays inside the catalog, and the live snapshot — what
	// /api/campaign, -mode watch and the -progress line print — is the
	// registry's count of this campaign.
	events, err := obs.ReadEvents(&eventBuf)
	if err != nil || len(events) == 0 {
		t.Fatalf("event log: %d records, err %v", len(events), err)
	}
	known := make(map[string]bool)
	for _, name := range obs.Catalog(t) {
		known[name] = true
	}
	for _, ev := range events {
		if !known[ev.Event] {
			t.Errorf("event %q is outside the catalog", ev.Event)
		}
	}
	cs := o.Campaign()
	if !cs.Done || cs.App != "minihdfs" || cs.ItemsDone != res.NumTests {
		t.Errorf("campaign snapshot: %+v", cs)
	}
	if cs.Executions != m.CounterValue(obs.MExecutions) || cs.ExecutionsSaved != res.Counts.ExecutionsSaved {
		t.Errorf("snapshot counts %d executions, %d saved; registry %d, result %d",
			cs.Executions, cs.ExecutionsSaved, m.CounterValue(obs.MExecutions), res.Counts.ExecutionsSaved)
	}
	if cs.Instances == 0 || cs.InstancesDone != cs.Instances {
		t.Errorf("snapshot instances %d/%d, want all done", cs.InstancesDone, cs.Instances)
	}
	if got := cs.Safe + cs.Unsafe + cs.Filtered + cs.HomoInvalid; got != m.CounterValue(obs.MVerdicts) {
		t.Errorf("snapshot verdict tallies sum to %d, registry %d", got, m.CounterValue(obs.MVerdicts))
	}

	// Exposition renders the catalog families the acceptance criteria name.
	var prom strings.Builder
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{obs.MExecutions, obs.MVerdicts, obs.MPValue,
		obs.MTestSeconds, obs.MPhaseSeconds, obs.MSchedQueueWait} {
		if !strings.Contains(prom.String(), "# TYPE "+family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
}
