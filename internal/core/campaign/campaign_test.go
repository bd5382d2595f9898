package campaign

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// syntheticApp builds an app with one unsafe parameter, several safe
// parameters, one false-positive trap, and a configurable number of unit
// tests that all exercise the same node type.
func syntheticApp(numTests int) *harness.App {
	schema := func() *confkit.Registry {
		r := confkit.NewRegistry()
		r.Register(
			confkit.Param{Name: "codec", Kind: confkit.Enum, Default: "plain",
				Candidates: []string{"plain", "zip"},
				Truth:      confkit.SafetyUnsafe, Why: "decode fails across codecs"},
			confkit.Param{Name: "buffer", Kind: confkit.Int, Default: "64"},
			confkit.Param{Name: "dir", Kind: confkit.String, Default: "/tmp"},
			// A block of safe parameters: pooled testing pays off only
			// when most of a pool is safe (the paper's §4 assumption).
			confkit.Param{Name: "safe.a", Kind: confkit.Int, Default: "1"},
			confkit.Param{Name: "safe.b", Kind: confkit.Int, Default: "2"},
			confkit.Param{Name: "safe.c", Kind: confkit.Bool, Default: "true"},
			confkit.Param{Name: "safe.d", Kind: confkit.String, Default: "x"},
			confkit.Param{Name: "safe.e", Kind: confkit.Ticks, Default: "30"},
			confkit.Param{Name: "safe.f", Kind: confkit.Int, Default: "100"},
			confkit.Param{Name: "safe.g", Kind: confkit.Bool, Default: "false"},
			confkit.Param{Name: "safe.h", Kind: confkit.Enum, Default: "m",
				Candidates: []string{"m", "n"}},
			confkit.Param{Name: "trap", Kind: confkit.Bool, Default: "false",
				Truth: confkit.SafetyFalsePositive, Why: "test compares node internals to the client conf"},
		)
		return r
	}
	app := &harness.App{
		Name:      "synthetic",
		Schema:    schema,
		NodeTypes: []string{"Node"},
	}
	for i := 0; i < numTests; i++ {
		app.Tests = append(app.Tests, harness.UnitTest{
			Name: fmt.Sprintf("TestExchange%d", i),
			Run: func(t *harness.T) {
				testConf := t.Env.RT.NewConf()
				t.Env.RT.StartInit("Node")
				nodeConf := testConf.RefToClone()
				t.Env.RT.StopInit()
				_ = nodeConf.GetInt("buffer")
				_ = nodeConf.Get("dir")
				for _, p := range []string{"safe.a", "safe.b", "safe.c", "safe.d",
					"safe.e", "safe.f", "safe.g", "safe.h"} {
					_ = nodeConf.Get(p)
				}
				nodeTrap := nodeConf.GetBool("trap")
				if nodeConf.Get("codec") != testConf.Get("codec") {
					t.Fatalf("codec mismatch between node and client")
				}
				if nodeTrap != testConf.GetBool("trap") {
					t.Fatalf("trap flag mismatch (private-state comparison)")
				}
			},
		})
	}
	// One node-less test, filtered by the pre-run.
	app.Tests = append(app.Tests, harness.UnitTest{
		Name: "TestPureFunction",
		Run:  func(t *harness.T) {},
	})
	return app
}

func TestCampaignFindsSeededBugAndScores(t *testing.T) {
	t.Parallel()
	res := Run(syntheticApp(3), Options{Parallelism: 4})
	reported := map[string]ParamReport{}
	for _, r := range res.Reported {
		reported[r.Param] = r
	}
	if _, ok := reported["codec"]; !ok {
		t.Fatalf("seeded unsafe parameter not reported: %+v", res.Reported)
	}
	if _, ok := reported["trap"]; !ok {
		t.Fatalf("false-positive trap not reported (it should be, then scored FP): %+v", res.Reported)
	}
	if _, ok := reported["buffer"]; ok {
		t.Fatal("safe parameter reported")
	}
	if res.TruePositives != 1 || res.FalsePositives != 1 {
		t.Fatalf("TP=%d FP=%d, want 1/1", res.TruePositives, res.FalsePositives)
	}
	if len(res.Missed) != 0 {
		t.Fatalf("missed: %v", res.Missed)
	}
	if res.Counts.Original <= res.Counts.AfterPreRun {
		t.Fatalf("no reduction from pre-run: %+v", res.Counts)
	}
	if res.Counts.Executed <= 0 {
		t.Fatal("no executions counted")
	}
	if res.SharingRate() != 1 {
		t.Fatalf("sharing rate %.2f, want 1.0 (every conf-using test shares)", res.SharingRate())
	}
}

func TestCampaignParamFilter(t *testing.T) {
	t.Parallel()
	res := Run(syntheticApp(2), Options{Parallelism: 4, Params: []string{"buffer"}})
	if len(res.Reported) != 0 {
		t.Fatalf("filtered campaign reported %v", res.Reported)
	}
	if len(res.Missed) != 0 {
		t.Fatalf("missed should be empty under a safe-only filter: %v", res.Missed)
	}
}

func TestCampaignTestFilter(t *testing.T) {
	t.Parallel()
	res := Run(syntheticApp(3), Options{Parallelism: 2, Tests: []string{"TestExchange0"}})
	if res.NumTests != 1 {
		t.Fatalf("NumTests = %d, want 1", res.NumTests)
	}
	if len(res.Reported) == 0 {
		t.Fatal("single-test campaign found nothing")
	}
}

// TestCampaignUnknownTestsSurfaced pins the silent-shrink fix: names in
// Options.Tests that match no unit test must land in Result.SkippedTests
// instead of vanishing, while the known names still run.
func TestCampaignUnknownTestsSurfaced(t *testing.T) {
	t.Parallel()
	res := Run(syntheticApp(3), Options{
		Parallelism: 2,
		Tests:       []string{"TestExchange0", "TestNoSuchThing", "TestAlsoMissing"},
	})
	if res.NumTests != 1 {
		t.Fatalf("NumTests = %d, want 1 (the one known name)", res.NumTests)
	}
	want := map[string]bool{"TestNoSuchThing": true, "TestAlsoMissing": true}
	if len(res.SkippedTests) != len(want) {
		t.Fatalf("SkippedTests = %v, want the two unknown names", res.SkippedTests)
	}
	for _, name := range res.SkippedTests {
		if !want[name] {
			t.Fatalf("SkippedTests = %v contains unexpected %q", res.SkippedTests, name)
		}
	}
	if len(res.Reported) == 0 {
		t.Fatal("the known test no longer reports; unknown-name handling broke the campaign")
	}
}

func TestCampaignDisablePoolingSameVerdicts(t *testing.T) {
	t.Parallel()
	pooled := Run(syntheticApp(2), Options{Parallelism: 4})
	flat := Run(syntheticApp(2), Options{Parallelism: 4, DisablePooling: true})
	names := func(rs []ParamReport) string {
		s := ""
		for _, r := range rs {
			s += r.Param + ","
		}
		return s
	}
	if names(pooled.Reported) != names(flat.Reported) {
		t.Fatalf("pooling changed verdicts: %q vs %q", names(pooled.Reported), names(flat.Reported))
	}
	if flat.Counts.Executed <= pooled.Counts.Executed {
		t.Fatalf("pooling saved nothing: pooled=%d flat=%d",
			pooled.Counts.Executed, flat.Counts.Executed)
	}
}

func TestCampaignQuarantineCapsWork(t *testing.T) {
	t.Parallel()
	res := Run(syntheticApp(6), Options{Parallelism: 1, QuarantineThreshold: 2})
	for _, r := range res.Reported {
		if r.Param == "codec" && len(r.Tests) > 3 {
			// With threshold 2 and sequential tests, the parameter is
			// quarantined quickly; later tests skip it. Parallel timing
			// can admit one extra test, not four.
			t.Fatalf("quarantine did not cap confirmations: %v", r.Tests)
		}
	}
}

// A pool whose left half holds a skipped parameter sheds it from a copy:
// the halves share one backing array, and the right half still runs every
// one of its members. Every parameter is unsafe, so every pool splits down
// to leaves, and the leaves' verdicts show which members ran. p1 is
// quarantined by the first execution after the pre-run — the pooled run
// of the whole slot — so it is a member of the top pool but skipped in
// its left half.
func TestSplitPoolRunsRightHalfPastSkippedMember(t *testing.T) {
	t.Parallel()
	params := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	app := &harness.App{
		Name:      "allunsafe",
		NodeTypes: []string{"Node"},
		Schema: func() *confkit.Registry {
			r := confkit.NewRegistry()
			for _, p := range params {
				r.Register(confkit.Param{Name: p, Kind: confkit.Bool, Default: "false"})
			}
			return r
		},
	}
	gen := testgen.New(app.Schema())
	var armed atomic.Bool
	app.Tests = []harness.UnitTest{{
		Name: "TestAll",
		Run: func(t *harness.T) {
			if armed.Load() {
				gen.Quarantine("p1")
			}
			testConf := t.Env.RT.NewConf()
			t.Env.RT.StartInit("Node")
			nodeConf := testConf.RefToClone()
			t.Env.RT.StopInit()
			for _, p := range params {
				if nodeConf.GetBool(p) != testConf.GetBool(p) {
					t.Fatalf("%s differs between node and client", p)
				}
			}
		},
	}}
	opts := Options{DisableExecCache: true}
	run := runner.New(app, RunnerOptions(app.Name, opts))
	pre := run.PreRun(&app.Tests[0])
	armed.Store(true)
	res := ExecuteItem(app, gen, run, opts, obs.NoSpan, WorkItem{Test: "TestAll", PreRun: pre})
	if !slices.Equal(res.ReachableParams, params) {
		t.Fatalf("instances generated for %v, want every parameter", res.ReachableParams)
	}

	var got []string
	for _, v := range res.Verdicts {
		if v.Verdict != runner.VerdictUnsafe.String() {
			t.Errorf("%s: verdict %s, want unsafe", v.Instance, v.Verdict)
		}
		got = append(got, v.Param)
	}
	if want := []string{"p0", "p2", "p3", "p4", "p5"}; !slices.Equal(got, want) {
		t.Fatalf("leaf verdicts for %v, want %v", got, want)
	}
}

// The agent of a pool that ran reads its members through the pool's
// recipe for as long as a goroutine of that execution runs, also while
// ExecuteItem goes on to split the pool and shed members of the halves: a
// reader keeps asking the pool's assigner while each half sheds its first
// member as runPool does, and gets the answers it got before, to the end.
// Under -race a shed that wrote the pools' shared array is a race as well.
func TestShedLeavesExecutedPoolIntact(t *testing.T) {
	t.Parallel()
	params := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	schema := confkit.NewRegistry()
	usage := make(map[string]bool)
	for _, p := range params {
		schema.Register(confkit.Param{Name: p, Kind: confkit.Bool, Default: "false"})
		usage[p] = true
	}
	rep := agent.Report{NodesStarted: map[string]int{"Node": 2}, Usage: map[string]map[string]bool{"Node": usage}}
	gen := testgen.New(schema)
	insts := gen.Instances(testgen.PreRun{Test: "T", Report: rep}, testgen.InstancesOptions{})
	pool := testgen.BuildPools("T", insts, 0)[0]
	if len(pool.Members) != len(params) {
		t.Fatalf("first pool has %d members, want one per parameter", len(pool.Members))
	}
	as := gen.Builder(&rep).Pooled(pool).Assigner()
	var keys []agent.Key
	for i := 0; i < 4; i++ {
		for _, p := range params {
			keys = append(keys, agent.Key{NodeType: "Node", NodeIndex: i, Param: p})
		}
	}
	want := make([]string, len(keys))
	for i, k := range keys {
		var ok bool
		if want[i], ok = as.Lookup(k); !ok {
			t.Fatalf("the pool assigns nothing to %v", k)
		}
	}

	stop, done := make(chan struct{}), make(chan error)
	go func() {
		for {
			last := false
			select {
			case <-stop:
				last = true // one whole pass after the sheds
			default:
			}
			for i, k := range keys {
				if v, ok := as.Lookup(k); !ok || v != want[i] {
					done <- fmt.Errorf("Lookup(%v) = %q, %v; want %q", k, v, ok, want[i])
					return
				}
			}
			if last {
				done <- nil
				return
			}
		}
	}()
	l, r := pool.Split()
	for _, half := range []testgen.Pool{l, r} {
		first := half.Members[0].Param
		if got := shed(half, true, func(p string) bool { return p == first }); len(got.Members) != len(half.Members)-1 {
			t.Errorf("shedding %s left %d of %d members", first, len(got.Members), len(half.Members))
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("the executed pool's assignment changed while its halves shed: %v", err)
	}
}
