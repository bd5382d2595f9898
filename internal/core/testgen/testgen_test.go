package testgen

import (
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/memo"
)

func testSchema() *confkit.Registry {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: "a.bool", Kind: confkit.Bool, Default: "false"},
		confkit.Param{Name: "b.int", Kind: confkit.Int, Default: "10"},
		confkit.Param{Name: "c.enum", Kind: confkit.Enum, Default: "x",
			Candidates: []string{"x", "y", "z"}},
		confkit.Param{Name: "d.dep", Kind: confkit.Enum, Default: "http",
			Candidates: []string{"http", "https"},
			DependsOn: []confkit.DependencyRule{
				{If: "https", Then: "d.addr", To: "secure-host"},
			}},
		confkit.Param{Name: "d.addr", Kind: confkit.String, Default: "plain-host"},
	)
	return r
}

func preRunWith(nodes map[string]int, usage map[string][]string, uncertain []string) PreRun {
	rep := agent.Report{
		NodesStarted:    nodes,
		Usage:           make(map[string]map[string]bool),
		UncertainParams: uncertain,
	}
	for entity, params := range usage {
		set := make(map[string]bool)
		for _, p := range params {
			set[p] = true
		}
		rep.Usage[entity] = set
	}
	return PreRun{Test: "T", Report: rep}
}

func TestPairsEnumeration(t *testing.T) {
	t.Parallel()
	s := testSchema()
	if got := len(Pairs(s.Lookup("a.bool"))); got != 1 {
		t.Fatalf("bool pairs = %d, want 1", got)
	}
	if got := len(Pairs(s.Lookup("b.int"))); got != 3 { // 3 auto values -> C(3,2)
		t.Fatalf("int pairs = %d, want 3", got)
	}
	if got := len(Pairs(s.Lookup("c.enum"))); got != 3 {
		t.Fatalf("enum pairs = %d, want 3", got)
	}
}

func TestInstancesRequireNodes(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(nil, map[string][]string{agent.UnitTestEntity: {"a.bool"}}, nil)
	if got := g.Instances(pre, InstancesOptions{}); len(got) != 0 {
		t.Fatalf("instances for a node-less test: %d", len(got))
	}
}

func TestInstancesUsageFiltering(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(
		map[string]int{"NN": 1, "DN": 2},
		map[string][]string{"DN": {"a.bool"}},
		nil,
	)
	insts := g.Instances(pre, InstancesOptions{})
	for _, in := range insts {
		if in.Param != "a.bool" || in.Group != "DN" {
			t.Fatalf("instance outside observed usage: %+v", in)
		}
	}
	// DN has 2 nodes: flip fwd/rev + rr fwd/rev = 4 per pair, 1 pair.
	if len(insts) != 4 {
		t.Fatalf("instances = %d, want 4", len(insts))
	}
}

func TestRoundRobinNeedsTwoNodes(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(
		map[string]int{"NN": 1},
		map[string][]string{"NN": {"a.bool"}},
		nil,
	)
	for _, in := range g.Instances(pre, InstancesOptions{}) {
		if in.Strategy == StrategyRoundRobin {
			t.Fatalf("round-robin generated for a single-node group: %+v", in)
		}
	}
}

func TestUncertaintyExclusion(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(
		map[string]int{"NN": 1},
		map[string][]string{"NN": {"a.bool", "b.int"}},
		[]string{"b.int"},
	)
	withFilter := g.Instances(pre, InstancesOptions{})
	withoutFilter := g.Instances(pre, InstancesOptions{SkipUncertaintyFilter: true})
	if len(withoutFilter) <= len(withFilter) {
		t.Fatalf("uncertainty filter removed nothing: %d vs %d", len(withoutFilter), len(withFilter))
	}
	for _, in := range withFilter {
		if in.Param == "b.int" {
			t.Fatalf("uncertain parameter still generated: %+v", in)
		}
	}
}

func TestQuarantineAndFilter(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(map[string]int{"NN": 1},
		map[string][]string{"NN": {"a.bool", "b.int"}}, nil)
	g.Quarantine("a.bool")
	for _, in := range g.Instances(pre, InstancesOptions{}) {
		if in.Param == "a.bool" {
			t.Fatal("quarantined parameter generated")
		}
	}
	g.SetFilter([]string{"a.bool"}) // filtered AND quarantined -> nothing
	if got := g.Instances(pre, InstancesOptions{}); len(got) != 0 {
		t.Fatalf("filter+quarantine left %d instances", len(got))
	}
	if g.InFilter("b.int") {
		t.Fatal("filter admits unlisted parameter")
	}
}

func TestAssignForFlip(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(map[string]int{"NN": 1, "DN": 2},
		map[string][]string{"DN": {"a.bool"}}, nil)
	in := Instance{Test: "T", Param: "a.bool", Group: "DN", Strategy: StrategyFlip,
		Pair: Pair{A: "true", B: "false"}}
	asn := g.AssignFor(in, &pre.Report)

	if valueOf(asn.Hetero, agent.Key{NodeType: "DN", NodeIndex: 0, Param: "a.bool"}) != "true" ||
		valueOf(asn.Hetero, agent.Key{NodeType: "DN", NodeIndex: 1, Param: "a.bool"}) != "true" {
		t.Fatalf("flip group values wrong: %v", AssignOf(asn.Hetero))
	}
	if valueOf(asn.Hetero, agent.Key{NodeType: "NN", NodeIndex: 0, Param: "a.bool"}) != "false" ||
		valueOf(asn.Hetero, agent.Key{NodeType: agent.UnitTestEntity, NodeIndex: 0, Param: "a.bool"}) != "false" {
		t.Fatalf("flip other-entity values wrong: %v", AssignOf(asn.Hetero))
	}

	// Reversed swaps the sides.
	in.Reversed = true
	asn = g.AssignFor(in, &pre.Report)
	if valueOf(asn.Hetero, agent.Key{NodeType: "DN", NodeIndex: 0, Param: "a.bool"}) != "false" {
		t.Fatalf("reversed flip wrong: %v", AssignOf(asn.Hetero))
	}

	// Homogeneous arms are uniform.
	for _, v := range AssignOf(asn.Homo[0]) {
		if v != "true" {
			t.Fatalf("homo arm A not uniform: %v", AssignOf(asn.Homo[0]))
		}
	}
	for _, v := range AssignOf(asn.Homo[1]) {
		if v != "false" {
			t.Fatalf("homo arm B not uniform: %v", AssignOf(asn.Homo[1]))
		}
	}
}

func TestAssignForRoundRobin(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(map[string]int{"DN": 2},
		map[string][]string{"DN": {"a.bool"}}, nil)
	in := Instance{Test: "T", Param: "a.bool", Group: "DN", Strategy: StrategyRoundRobin,
		Pair: Pair{A: "true", B: "false"}}
	asn := g.AssignFor(in, &pre.Report)
	if valueOf(asn.Hetero, agent.Key{NodeType: "DN", NodeIndex: 0, Param: "a.bool"}) != "true" ||
		valueOf(asn.Hetero, agent.Key{NodeType: "DN", NodeIndex: 1, Param: "a.bool"}) != "false" {
		t.Fatalf("round robin alternation wrong: %v", AssignOf(asn.Hetero))
	}
}

func TestDependencyRulesApplied(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(map[string]int{"NN": 1},
		map[string][]string{"NN": {"d.dep"}}, nil)
	in := Instance{Test: "T", Param: "d.dep", Group: "NN", Strategy: StrategyFlip,
		Pair: Pair{A: "https", B: "http"}}
	asn := g.AssignFor(in, &pre.Report)
	if valueOf(asn.Hetero, agent.Key{NodeType: "NN", NodeIndex: 0, Param: "d.addr"}) != "secure-host" {
		t.Fatalf("dependency rule not applied on the https side: %v", AssignOf(asn.Hetero))
	}
	if _, set := asn.Hetero.Lookup(agent.Key{NodeType: agent.UnitTestEntity, NodeIndex: 0, Param: "d.addr"}); set {
		t.Fatalf("dependency applied where the trigger value was not assigned: %v", AssignOf(asn.Hetero))
	}
}

func TestBuildPoolsPartition(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(map[string]int{"NN": 1, "DN": 2},
		map[string][]string{"NN": {"a.bool", "b.int", "c.enum"}, "DN": {"a.bool"}}, nil)
	insts := g.Instances(pre, InstancesOptions{})
	pools := BuildPools("T", insts, 0)

	seen := make(map[string]int)
	for _, p := range pools {
		params := make(map[string]bool)
		for _, in := range p.Members {
			if params[in.Param] {
				t.Fatalf("pool holds two instances of %s", in.Param)
			}
			params[in.Param] = true
			seen[in.String()]++
		}
	}
	if len(seen) != len(insts) {
		t.Fatalf("pools cover %d instances, want %d", len(seen), len(insts))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("instance %s appears %d times", k, n)
		}
	}
}

func TestBuildPoolsMaxSize(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(map[string]int{"NN": 1},
		map[string][]string{"NN": {"a.bool", "b.int", "c.enum", "d.dep"}}, nil)
	insts := g.Instances(pre, InstancesOptions{})
	for _, p := range BuildPools("T", insts, 2) {
		if len(p.Members) > 2 {
			t.Fatalf("pool exceeds max size: %d members", len(p.Members))
		}
	}
}

func TestPoolSplitAndMergedAssignment(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(map[string]int{"NN": 1},
		map[string][]string{"NN": {"a.bool", "b.int"}}, nil)
	insts := g.Instances(pre, InstancesOptions{})
	pools := BuildPools("T", insts, 0)
	if len(pools) == 0 || len(pools[0].Members) != 2 {
		t.Fatalf("unexpected pool shape: %v", pools)
	}
	asn := AssignOf(g.Builder(&pre.Report).Pooled(pools[0]))
	foundA, foundB := false, false
	for k := range asn {
		switch k.Param {
		case "a.bool":
			foundA = true
		case "b.int":
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Fatalf("merged assignment misses a member: %v", asn)
	}
	l, r := pools[0].Split()
	if len(l.Members)+len(r.Members) != len(pools[0].Members) {
		t.Fatal("split lost members")
	}
}

func TestCountsMonotonic(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pres := []PreRun{
		preRunWith(map[string]int{"NN": 1, "DN": 2},
			map[string][]string{"NN": {"a.bool", "b.int"}, "DN": {"c.enum"}},
			[]string{"b.int"}),
		preRunWith(nil, nil, nil), // node-less test
	}
	orig := g.OriginalCount(len(pres), []string{"NN", "DN"})
	afterPre := g.CountAfterPreRun(pres)
	afterUnc := g.CountAfterUncertainty(pres)
	if !(orig >= afterPre && afterPre >= afterUnc && afterUnc > 0) {
		t.Fatalf("reduction not monotonic: %d >= %d >= %d", orig, afterPre, afterUnc)
	}
}

// Property: every pool built from arbitrary slot sizes partitions its
// input (no instance lost or duplicated, no duplicate params per pool).
func TestBuildPoolsPartitionProperty(t *testing.T) {
	t.Parallel()
	fn := func(sizes []uint8) bool {
		var insts []Instance
		for p, n := range sizes {
			cnt := int(n%5) + 1
			for i := 0; i < cnt; i++ {
				insts = append(insts, Instance{
					Test:  "T",
					Param: "param" + string(rune('a'+p%26)) + string(rune('0'+p/26)),
					Group: "G", Strategy: StrategyFlip,
					Pair: Pair{A: "1", B: "2"}, Reversed: i%2 == 1,
				})
			}
		}
		total := 0
		for _, pool := range BuildPools("T", insts, 0) {
			params := map[string]bool{}
			for _, in := range pool.Members {
				if params[in.Param] {
					return false
				}
				params[in.Param] = true
			}
			total += len(pool.Members)
		}
		return total == len(insts)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// valueOf is the value r assigns k, as the agent reads it.
func valueOf(r Recipe, k agent.Key) string {
	v, _ := r.Assigner().Lookup(k)
	return v
}

// mergeAssign is the reference pooled construction Builder.Pooled must
// reproduce: members' separate heterogeneous maps, merged in member order
// without overwriting a key an earlier member set.
func mergeAssign(dst, src map[agent.Key]string) {
	for k, v := range src {
		if _, exists := dst[k]; !exists {
			dst[k] = v
		}
	}
}

func checkPoolAssignment(t *testing.T, g *Generator, rep *agent.Report, p Pool) bool {
	t.Helper()
	want := make(map[agent.Key]string)
	for _, in := range p.Members {
		mergeAssign(want, AssignOf(g.AssignFor(in, rep).Hetero))
	}
	got := AssignOf(g.Builder(rep).Pooled(p))
	if !maps.Equal(got, want) || memo.HashAssignment(got) != memo.HashAssignment(want) {
		t.Errorf("pool %v:\n got  %v\n want %v", p.Members, got, want)
		return false
	}
	return true
}

// Property: a pool's assignment is key for key the first-writer-wins
// merge of its members' separate heterogeneous assignments, for every
// node population, usage pattern and pool bound.
func TestPoolAssignmentEqualsMemberMerge(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	params := []string{"a.bool", "b.int", "c.enum", "d.dep", "d.addr"}
	entities := []string{"NN", "DN", agent.UnitTestEntity}
	fn := func(nn, dn uint8, reads uint16, noRR, bounded bool) bool {
		usage := make(map[string][]string)
		for i, p := range params {
			for j, e := range entities {
				if reads&(1<<(i*len(entities)+j)) != 0 {
					usage[e] = append(usage[e], p)
				}
			}
		}
		pre := preRunWith(map[string]int{"NN": int(nn % 4), "DN": int(dn % 4)}, usage, nil)
		maxPool := 0
		if bounded {
			maxPool = 2
		}
		insts := g.Instances(pre, InstancesOptions{DisableRoundRobin: noRR})
		for _, p := range BuildPools("T", insts, maxPool) {
			if !checkPoolAssignment(t, g, &pre.Report, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// An earlier member's dependency rule sets a later member's own
	// parameter on the same entity: the earlier member's value stands.
	pre := preRunWith(map[string]int{"NN": 1}, map[string][]string{"NN": {"d.dep", "d.addr"}}, nil)
	dep := Instance{Test: "T", Param: "d.dep", Group: "NN", Strategy: StrategyFlip,
		Pair: Pair{A: "https", B: "http"}}
	addr := Instance{Test: "T", Param: "d.addr", Group: "NN", Strategy: StrategyFlip,
		Pair: Pair{A: "other-host", B: "plain-host"}}
	p := Pool{Test: "T", Members: []Instance{dep, addr}}
	checkPoolAssignment(t, g, &pre.Report, p)
	k := agent.Key{NodeType: "NN", NodeIndex: 0, Param: "d.addr"}
	if got := valueOf(g.Builder(&pre.Report).Pooled(p), k); got != "secure-host" {
		t.Fatalf("%v = %q, want the earlier member's dependency value", k, got)
	}
}

// Pools, and the halves a pool splits into, share one backing array;
// growing one must never write into its neighbour.
func TestPoolsDoNotAlias(t *testing.T) {
	t.Parallel()
	g := New(testSchema())
	pre := preRunWith(map[string]int{"NN": 2},
		map[string][]string{"NN": {"a.bool", "b.int", "c.enum", "d.dep"}}, nil)
	insts := g.Instances(pre, InstancesOptions{})
	for _, maxPool := range []int{0, 2} {
		pools := BuildPools("T", insts, maxPool)
		if len(pools) < 2 {
			t.Fatalf("maxPool %d: %d pools, want several", maxPool, len(pools))
		}
		for i := 0; i+1 < len(pools); i++ {
			next := slices.Clone(pools[i+1].Members)
			_ = append(pools[i].Members, Instance{Param: "intruder"})
			if !slices.Equal(pools[i+1].Members, next) {
				t.Fatalf("maxPool %d: appending to pool %d rewrote pool %d", maxPool, i, i+1)
			}
		}
		l, r := pools[0].Split()
		right := slices.Clone(r.Members)
		_ = append(l.Members, Instance{Param: "intruder"})
		if !slices.Equal(r.Members, right) {
			t.Fatalf("maxPool %d: appending to a left half rewrote the right half", maxPool)
		}
	}
}
