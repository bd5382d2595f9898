package agent

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"zebraconf/internal/confkit"
	"zebraconf/internal/simtime"
)

func newRuntime() *confkit.Runtime {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: "p", Kind: confkit.Int, Default: "1"},
		confkit.Param{Name: "q", Kind: confkit.String, Default: "dflt"},
	)
	return confkit.NewRuntime(r)
}

// underBothIdentities runs scenario once per identity source an agent can
// have — the gid.ID fallback, goroutines started plainly; and a virtual
// clock, the calling goroutine its first member, goroutines started through
// Scale.Go — and requires the two executions to end in the same Report.
func underBothIdentities(t *testing.T, opts Options, scenario func(t *testing.T, rt *confkit.Runtime, ag *Agent, s *simtime.Scale)) {
	t.Helper()
	var reports []Report
	for _, src := range []struct {
		name    string
		virtual bool
	}{{"gid", false}, {"clock", true}} {
		t.Run(src.name, func(t *testing.T) {
			s, o := &simtime.Scale{}, opts
			if src.virtual {
				s = simtime.NewVirtual()
				o.Identity = s.Member
			}
			rt := newRuntime()
			rt.SetSpawner(s.Go)
			ag := New(o)
			rt.SetHooks(ag)
			scenario(t, rt, ag, s)
			reports = append(reports, ag.Report())
		})
	}
	if len(reports) == 2 && !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("the identity source changed the report:\n gid:   %+v\n clock: %+v", reports[0], reports[1])
	}
}

// server mimics the paper's Fig. 2b Server class: its constructor opens an
// init window, replaces the shared reference with a clone, and creates a
// subcomponent with its own configuration object (Fig. 2c).
type server struct {
	conf    *confkit.Conf
	subConf *confkit.Conf
}

func newServer(rt *confkit.Runtime, shared *confkit.Conf) *server {
	rt.StartInit("Server")
	defer rt.StopInit()
	s := &server{conf: shared.RefToClone()}
	s.subConf = rt.NewConf() // the Component's own configuration
	return s
}

// TestPaperWalkthrough executes the scenario of paper §6.3 Steps 1–7 and
// checks every ownership decision.
func TestPaperWalkthrough(t *testing.T) {
	t.Parallel()
	underBothIdentities(t, Options{Assign: map[Key]string{
		{NodeType: "Server", NodeIndex: 0, Param: "p"}:       "100",
		{NodeType: "Server", NodeIndex: 1, Param: "p"}:       "200",
		{NodeType: UnitTestEntity, NodeIndex: 0, Param: "p"}: "7",
	}}, paperWalkthrough)
}

func paperWalkthrough(t *testing.T, rt *confkit.Runtime, ag *Agent, _ *simtime.Scale) {
	// Step 1: the unit test creates a blank configuration (Rule 1.2).
	conf := rt.NewConf()
	// Steps 2–5: server1; Step 6: server2 — sharing conf (Rule 2, 1.1).
	s1 := newServer(rt, conf)
	s2 := newServer(rt, conf)

	// Step 7: reads through each owner observe that owner's value.
	if got := s1.conf.GetInt("p"); got != 100 {
		t.Errorf("server1 reads p=%d, want 100", got)
	}
	if got := s2.conf.GetInt("p"); got != 200 {
		t.Errorf("server2 reads p=%d, want 200", got)
	}
	if got := s1.subConf.GetInt("p"); got != 100 {
		t.Errorf("server1's component reads p=%d, want 100 (Rule 1.1)", got)
	}
	if got := conf.GetInt("p"); got != 7 {
		t.Errorf("unit test reads p=%d, want 7 (Rule 1.2)", got)
	}
	// Even when the unit test calls server internals on the main
	// goroutine, the configuration OBJECT determines the value — the
	// paper's key design point versus thread-based attribution.
	if got := s1.conf.GetInt("p"); got != 100 {
		t.Errorf("server1 internal call from the test goroutine reads %d, want 100", got)
	}

	rep := ag.Report()
	if rep.NodesStarted["Server"] != 2 {
		t.Fatalf("nodes started: %v", rep.NodesStarted)
	}
	if !rep.SharedConf {
		t.Fatal("sharing not detected although the test shared its object")
	}
	if rep.UncertainConfs != 0 {
		t.Fatalf("unexpected uncertain objects: %d", rep.UncertainConfs)
	}
	if !rep.Usage["Server"]["p"] || !rep.Usage[UnitTestEntity]["p"] {
		t.Fatalf("usage tracking incomplete: %v", rep.Usage)
	}
}

func TestRule3CloneJoinsOwnersGroup(t *testing.T) {
	t.Parallel()
	rt := newRuntime()
	ag := New(Options{Assign: map[Key]string{
		{NodeType: "Server", NodeIndex: 0, Param: "p"}: "55",
	}})
	rt.SetHooks(ag)

	shared := rt.NewConf()
	s := newServer(rt, shared)
	clone := s.conf.Clone() // Rule 3: same entity as the original
	if got := clone.GetInt("p"); got != 55 {
		t.Fatalf("clone of a node conf reads p=%d, want the node's 55", got)
	}
	testClone := shared.Clone() // Rule 3: belongs to the unit test
	ag2 := ag.Report()
	if ag2.UncertainConfs != 0 {
		t.Fatalf("clones left uncertain objects: %d", ag2.UncertainConfs)
	}
	_ = testClone
}

func TestUncertainConfDetected(t *testing.T) {
	t.Parallel()
	rt := newRuntime()
	ag := New(Options{})
	rt.SetHooks(ag)

	_ = rt.NewConf() // unit test conf (no node yet)
	newServer(rt, rt.NewConf())

	// A conf created on a plain goroutine AFTER a node initialized:
	// no rule places it.
	var wg sync.WaitGroup
	wg.Add(1)
	var stray *confkit.Conf
	go func() {
		defer wg.Done()
		stray = rt.NewConf()
		_ = stray.Get("q")
	}()
	wg.Wait()

	rep := ag.Report()
	if rep.UncertainConfs != 1 {
		t.Fatalf("UncertainConfs = %d, want 1", rep.UncertainConfs)
	}
	if len(rep.UncertainParams) != 1 || rep.UncertainParams[0] != "q" {
		t.Fatalf("UncertainParams = %v, want [q]", rep.UncertainParams)
	}
}

// Identity 0 is a goroutine outside the execution — under the harness, one
// still running after the clock's shutdown. All such goroutines read 0, so
// none of them may own an init window: the node is counted, and what is
// created "inside" the window is uncertain, not the node's.
func TestNoIdentityOwnsNoInitWindow(t *testing.T) {
	t.Parallel()
	rt := newRuntime()
	ag := New(Options{Identity: func() uint64 { return 0 }})
	rt.SetHooks(ag)
	rt.StartInit("Server")
	_ = rt.NewConf().Get("q")
	rt.StopInit()
	rep := ag.Report()
	if rep.NodesStarted["Server"] != 1 || rep.UncertainConfs != 1 || len(rep.Usage) != 0 {
		t.Fatalf("report = %+v, want one Server, its conf uncertain", rep)
	}
}

// A goroutine wrapped by Inherit that starts while the clock is halted or
// shut down reads identity 0, like every goroutine outside the execution.
// It must not take the node's window: one opened for identity 0 would be
// shared by all of them.
func TestInheritOnNoIdentityOpensNoWindow(t *testing.T) {
	t.Parallel()
	var cur uint64 = 1
	rt := newRuntime()
	ag := New(Options{Identity: func() uint64 { return cur }})
	rt.SetHooks(ag)
	rt.StartInit("Server")
	var spawned *confkit.Conf
	run := ag.Inherit(func() { spawned = rt.NewConf() })
	cur = 0
	run()
	rt.NewConf() // identity 0 again, after the wrapper returned
	cur = 1
	rt.NewConf() // the node's own
	rt.StopInit()
	if spawned == nil {
		t.Fatal("the wrapped function did not run")
	}
	if rep := ag.Report(); rep.TotalConfs != 3 || rep.UncertainConfs != 2 {
		t.Fatalf("report = %+v, want three objects, the two made on identity 0 uncertain", rep)
	}
}

func TestSpawnInheritsNodeOwnership(t *testing.T) {
	t.Parallel()
	underBothIdentities(t, Options{Assign: map[Key]string{
		{NodeType: "Worker", NodeIndex: 0, Param: "p"}: "77",
	}}, func(t *testing.T, rt *confkit.Runtime, _ *Agent, s *simtime.Scale) {
		rt.StartInit("Worker")
		got := make(chan int64, 1)
		workers := s.NewGroup(rt.Go)
		workers.Go(func() { // spawned during init: inherits the node
			s.Sleep(1) // and keeps it across a park
			workerConf := rt.NewConf()
			got <- workerConf.GetInt("p")
		})
		workers.Wait()
		rt.StopInit()
		if v := <-got; v != 77 {
			t.Fatalf("conf created on a spawned worker goroutine reads p=%d, want 77", v)
		}
	})
}

func TestInterceptSetWritesBackToParent(t *testing.T) {
	t.Parallel()
	rt := newRuntime()
	ag := New(Options{})
	rt.SetHooks(ag)

	shared := rt.NewConf()
	s := newServer(rt, shared)
	// The node fills a value the unit test later reads from ITS object —
	// the pattern interceptSet's write-back exists for (paper §6.3).
	s.conf.Set("q", "filled-by-node")
	if got := shared.Get("q"); got != "filled-by-node" {
		t.Fatalf("parent object reads q=%q, want the node's write", got)
	}
}

func TestNodeIndexesAssignedInStartOrder(t *testing.T) {
	t.Parallel()
	rt := newRuntime()
	ag := New(Options{Assign: map[Key]string{
		{NodeType: "Server", NodeIndex: 0, Param: "p"}: "10",
		{NodeType: "Server", NodeIndex: 1, Param: "p"}: "20",
		{NodeType: "Server", NodeIndex: 2, Param: "p"}: "30",
	}})
	rt.SetHooks(ag)
	shared := rt.NewConf()
	servers := []*server{newServer(rt, shared), newServer(rt, shared), newServer(rt, shared)}
	for i, want := range []int64{10, 20, 30} {
		if got := servers[i].conf.GetInt("p"); got != want {
			t.Errorf("server %d reads %d, want %d", i, got, want)
		}
	}
	if counts := ag.NodeCounts(); counts["Server"] != 3 {
		t.Fatalf("NodeCounts = %v", counts)
	}
}

func TestRefToCloneOutsideInitWindow(t *testing.T) {
	t.Parallel()
	underBothIdentities(t, Options{}, func(t *testing.T, rt *confkit.Runtime, ag *Agent, _ *simtime.Scale) {
		shared := rt.NewConf()
		// Misuse: RefToClone without StartInit. The original reference is
		// returned and the anomaly counted.
		if got := shared.RefToClone(); got != shared {
			t.Fatal("RefToClone outside an init window returned a clone")
		}
		if rep := ag.Report(); rep.RefAnomalies != 1 {
			t.Fatalf("RefAnomalies = %d, want 1", rep.RefAnomalies)
		}
	})
}

// TestThreadOnlyStrategyMisattributes demonstrates the paper's failed
// attempt #3: when the unit test calls a node's internals on the test
// goroutine, thread-based attribution serves the TEST's value where the
// node's value is correct.
func TestThreadOnlyStrategyMisattributes(t *testing.T) {
	t.Parallel()
	underBothIdentities(t, Options{
		Strategy: StrategyThreadOnly,
		Assign: map[Key]string{
			{NodeType: "Server", NodeIndex: 0, Param: "p"}:       "100",
			{NodeType: "Server", NodeIndex: 1, Param: "p"}:       "100",
			{NodeType: UnitTestEntity, NodeIndex: 0, Param: "p"}: "7",
		},
	}, threadOnlyMisattributes)
}

func threadOnlyMisattributes(t *testing.T, rt *confkit.Runtime, _ *Agent, s *simtime.Scale) {
	shared := rt.NewConf()
	srv := newServer(rt, shared)

	// The unit test invokes node code directly (Fig. 2d line 7): with
	// thread attribution the read resolves to the unit test's value.
	if got := srv.conf.GetInt("p"); got != 7 {
		t.Fatalf("thread-only strategy read %d; the documented misattribution should yield 7", got)
	}
	// During init (on a node-owned goroutine), attribution is correct.
	// (This StartInit registers a second Server node, index 1.)
	rt.StartInit("Server")
	if got := srv.conf.GetInt("p"); got != 100 {
		t.Errorf("read inside an init window = %d, want 100", got)
	}
	// A worker spawned inside the window stays the node's after the window
	// closes and across a park; the test's own goroutine does not.
	workers := s.NewGroup(rt.Go)
	workers.Go(func() {
		s.Sleep(1)
		if got := srv.conf.GetInt("p"); got != 100 {
			t.Errorf("read on a worker spawned during init = %d, want 100", got)
		}
	})
	rt.StopInit()
	workers.Wait()
	if got := srv.conf.GetInt("p"); got != 7 {
		t.Errorf("read on the test's goroutine after the window closed = %d, want 7", got)
	}
}

func TestHomoAssignmentUniformEverywhere(t *testing.T) {
	t.Parallel()
	rt := newRuntime()
	assign := map[Key]string{
		{NodeType: "Server", NodeIndex: 0, Param: "p"}:       "9",
		{NodeType: "Server", NodeIndex: 1, Param: "p"}:       "9",
		{NodeType: UnitTestEntity, NodeIndex: 0, Param: "p"}: "9",
	}
	ag := New(Options{Assign: assign})
	rt.SetHooks(ag)
	shared := rt.NewConf()
	s1, s2 := newServer(rt, shared), newServer(rt, shared)
	for _, c := range []*confkit.Conf{shared, s1.conf, s2.conf, s1.subConf, s2.subConf} {
		if got := c.GetInt("p"); got != 9 {
			t.Fatalf("homogeneous assignment leaked: read %d", got)
		}
	}
}

// A parameter read through objects of two registries — an application's
// and one derived from it by WithDefaults, which numbers its parameters
// the same — is one parameter of the coverage set, whichever is read
// first: the first registry's reads are bits, the other's names beside
// them.
func TestCoverageAcrossRegistriesNamesEachOnce(t *testing.T) {
	t.Parallel()
	for _, derivedFirst := range []bool{false, true} {
		reg := confkit.NewRegistry().Register(
			confkit.Param{Name: "p", Kind: confkit.Int, Default: "1"},
			confkit.Param{Name: "q", Kind: confkit.String, Default: "dflt"},
		)
		rts := []*confkit.Runtime{confkit.NewRuntime(reg), confkit.NewRuntime(reg.WithDefaults(map[string]string{"p": "2"}))}
		if derivedFirst {
			rts[0], rts[1] = rts[1], rts[0]
		}
		ag := New(Options{Coverage: true, Trial: true})
		for _, rt := range rts {
			rt.SetHooks(ag)
			rt.NewConf().GetInt("p")
		}
		rts[1].NewConf().Get("q")
		if got, want := ag.CoverageParams(), []string{"p", "q"}; !reflect.DeepEqual(got, want) {
			t.Errorf("derived registry read first: %v; coverage %q, want %q", derivedFirst, got, want)
		}
	}
}

// CoverageParams hands back Options.LastReads itself when the execution
// read exactly that set, and builds nothing for it; a set that grew,
// shrank, or equals LastReads only as a set (another order) is a fresh
// slice; an execution that read nothing has a non-nil empty set.
func TestCoverageParamsSharesAnEqualSet(t *testing.T) {
	t.Parallel()
	rt := newRuntime()
	ag := new(Agent)
	rt.SetHooks(ag)
	run := func(last []string, reads ...string) []string {
		Reuse(ag, Options{Coverage: true, Trial: true, LastReads: last})
		c := rt.NewConf()
		for _, name := range reads {
			c.Get(name)
		}
		return ag.CoverageParams()
	}
	shares := func(a, b []string) bool { return len(a) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b) }

	last := []string{"p", "q"}
	if got := run(last, "q", "p", "q"); !shares(got, last) || len(got) != 2 {
		t.Fatalf("an equal set came back as %q, not the offered slice", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { sinkParams = ag.CoverageParams() }); allocs != 0 {
		t.Fatalf("an equal set made %.0f allocations, want 0", allocs)
	}
	for _, tc := range []struct {
		what  string
		last  []string
		reads []string
		want  []string
	}{
		{"grown", []string{"p"}, []string{"p", "q"}, []string{"p", "q"}},
		{"shrunk", []string{"p", "q"}, []string{"q"}, []string{"q"}},
		{"reordered", []string{"q", "p"}, []string{"p", "q"}, []string{"p", "q"}},
		{"first", nil, []string{"q"}, []string{"q"}},
	} {
		got := run(tc.last, tc.reads...)
		if !slices.Equal(got, tc.want) || shares(got, tc.last) || shares(got, ag.covBuf) {
			t.Errorf("%s set: got %q, want a fresh %q", tc.what, got, tc.want)
		}
	}
	for _, last := range [][]string{nil, {"p"}, {}} {
		if got := run(last); got == nil || len(got) != 0 {
			t.Errorf("no read with LastReads %q: got %#v, want a non-nil empty set", last, got)
		}
	}
}

var sinkParams []string
