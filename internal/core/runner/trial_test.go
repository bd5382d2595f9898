package runner

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// An abandoned execution's goroutine keeps reading the assignment its
// trial was given. The hetero trial (p = "b" on the unit test) hangs past
// its watchdog on a bare channel and is abandoned; the next trial of the
// same builder, homoA (p = "a"), lets it go on and waits for what it then
// reads: "b", whatever the builder's slot holds by now.
func TestAbandonedTrialKeepsItsAssignment(t *testing.T) {
	schema := func() *confkit.Registry {
		return confkit.NewRegistry().Register(confkit.Param{Name: "p", Kind: confkit.String, Default: "dflt"})
	}
	var runs atomic.Int32
	var read atomic.Pointer[string]
	release, readBack := make(chan struct{}), make(chan string, 1)
	test := harness.UnitTest{Name: "TestOutlivesItsTrial", Timeout: 250 * time.Millisecond, Run: func(t *harness.T) {
		c := t.Env.RT.NewConf() // the unit test's (Rule 1.2)
		switch runs.Add(1) {
		case 1:
			<-release // a bare channel: the watchdog abandons the execution
			readBack <- c.Get("p")
		case 2:
			close(release)
			v := <-readBack
			read.Store(&v)
		}
	}}
	app := &harness.App{Name: "abandon", Schema: schema, Tests: []harness.UnitTest{test}}
	in := testgen.Instance{Test: test.Name, Param: "p", Group: agent.UnitTestEntity,
		Strategy: testgen.StrategyFlip, Reversed: true, Pair: testgen.Pair{A: "a", B: "b"}}
	asn := testgen.New(app.Schema()).Builder(&agent.Report{}).Leaf(in)
	leaked := harness.LeakedGoroutines()
	res := New(app, Options{MaxRounds: 1}).RunAssignment(&app.Tests[0], asn, "inst")
	if res.Abandoned != 1 || read.Load() == nil {
		t.Fatalf("%d of %d executions abandoned, want the first of several", res.Abandoned, res.Executions)
	}
	if v := *read.Load(); v != "b" {
		t.Errorf("the abandoned trial's goroutine read p = %q, want its own \"b\"", v)
	}
	for deadline := time.Now().Add(10 * time.Second); harness.LeakedGoroutines() > leaked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned body never returned")
		}
	}
}

// A test's executions that read the same parameters share one read set:
// the runner offers each execution the test's last set, and an execution
// reading another set keeps its own from then on.
func TestTrialsShareTheirReadSet(t *testing.T) {
	t.Parallel()
	app := syntheticApp("none")
	r := New(app, Options{Coverage: coverage.NewCollector()})
	asn, test := instanceFor(app, r) // the pre-run: its set is the first kept
	var sets [][]string
	for round := range 3 {
		for _, recipe := range []testgen.Recipe{asn.Hetero, asn.Homo[0]} {
			out, _, _ := r.runTrial(obs.NoSpan, new(Result), trial{test: test, recipe: recipe, label: "inst", round: round})
			sets = append(sets, out.ReadParams)
		}
	}
	for i, set := range sets {
		if len(set) != 1 || unsafe.SliceData(set) != unsafe.SliceData(sets[0]) {
			t.Fatalf("trial %d read %q in a set of its own, want the first trial's %q", i, set, sets[0])
		}
	}
	if params, _ := r.opts.Coverage.Params(test.Name); len(params) != 1 {
		t.Fatalf("the collector holds %q, want the one parameter read", params)
	}
}

// BenchmarkTrial prices one leaf assignment's trials in the runner: a
// deterministic unsafe instance, every trial executed (no cache) with
// coverage on, as a campaign's phase 2 runs them; trials/op is how many.
func BenchmarkTrial(b *testing.B) {
	app := syntheticApp("deterministic")
	r := New(app, Options{Coverage: coverage.NewCollector()})
	asn, test := instanceFor(app, r)
	var trials int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.RunAssignment(test, asn, "inst")
		if res.Verdict != VerdictUnsafe {
			b.Fatalf("verdict %v, want unsafe", res.Verdict)
		}
		trials += res.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
}
