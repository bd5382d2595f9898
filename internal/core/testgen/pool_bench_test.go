package testgen_test

import (
	"slices"
	"sync"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// flinkInput is the per-layer input of the benchmarks below: the
// miniflink unit test whose pre-run generates the most instances.
type flinkInput struct {
	gen    *testgen.Generator
	pre    testgen.PreRun
	insts  []testgen.Instance
	params []string // the schema's
}

// miniflinkPools pre-runs every miniflink unit test once per process. Its
// instances are shared: a caller hands BuildPools a copy.
var miniflinkPools = sync.OnceValue(func() flinkInput {
	app, err := apps.ByName("miniflink")
	if err != nil {
		panic(err)
	}
	in := flinkInput{gen: testgen.New(app.Schema()), params: app.Schema().Names()}
	run := runner.New(app, runner.Options{BaseSeed: 1})
	for i := range app.Tests {
		pre := run.PreRun(&app.Tests[i])
		if insts := in.gen.Instances(pre, testgen.InstancesOptions{}); len(insts) > len(in.insts) {
			in.pre, in.insts = pre, insts
		}
	}
	return in
})

// Sinks keep the measured calls from being optimized away.
var (
	sinkAssigner agent.Assigner
	sinkDigest   string
	sinkPools    []testgen.Pool
	sinkValue    string
)

// BenchmarkPoolAssignment is what an executed pooled run costs the
// builder: its assignment as the agent reads it.
func BenchmarkPoolAssignment(b *testing.B) {
	in := miniflinkPools()
	pools := testgen.BuildPools(in.pre.Test, slices.Clone(in.insts), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asn := in.gen.Builder(&in.pre.Report)
		for _, p := range pools {
			sinkAssigner = asn.Pooled(p).Assigner()
		}
		asn.Release()
	}
}

// BenchmarkRecipeLookup prices the agent's question, one read's override,
// over every pool of the largest miniflink item at every key a read can
// ask (each entity with each parameter of the schema, most of them not
// assigned): answered from the recipe, and, the baseline, from a map of
// its entries.
func BenchmarkRecipeLookup(b *testing.B) {
	in := miniflinkPools()
	asn := in.gen.Builder(&in.pre.Report)
	keys := lookupKeys(&in.pre.Report, in.params)
	for _, arm := range []string{"recipe", "map"} {
		b.Run(arm, func(b *testing.B) {
			var as []agent.Assigner
			for _, p := range testgen.BuildPools(in.pre.Test, slices.Clone(in.insts), 0) {
				// Each pool's own copy: Assigner's is the builder's slot,
				// which the next Assigner overwrites.
				r := asn.Pooled(p)
				var a agent.Assigner = &r
				if arm == "map" {
					a = mapAssigner(testgen.AssignOf(r))
				}
				as = append(as, a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range as {
					for _, k := range keys {
						sinkValue, _ = a.Lookup(k)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(as)*len(keys)), "ns/lookup")
		})
	}
}

// mapAssigner is the agent's own adapter for an assignment held as a map
// (agent.Options.Assign).
type mapAssigner map[agent.Key]string

func (m mapAssigner) Lookup(k agent.Key) (string, bool) {
	v, ok := m[k]
	return v, ok
}

// BenchmarkPoolDigest is what a cache-served pooled run costs the builder:
// the digest alone.
func BenchmarkPoolDigest(b *testing.B) {
	in := miniflinkPools()
	pools := testgen.BuildPools(in.pre.Test, slices.Clone(in.insts), 0)
	asn := in.gen.Builder(&in.pre.Report)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pools {
			sinkDigest = asn.Pooled(p).Digest()
		}
	}
}

func BenchmarkBuildPools(b *testing.B) {
	in := miniflinkPools()
	b.ReportAllocs()
	b.ResetTimer()
	buf := make([]testgen.Instance, len(in.insts))
	for i := 0; i < b.N; i++ {
		copy(buf, in.insts) // BuildPools permutes what it is given
		sinkPools = testgen.BuildPools(in.pre.Test, buf, 0)
	}
}

// An executed trial's assignment costs nothing once its builder has a
// slot, whatever the kind, and the agent's reads through it nothing; a
// pooled digest allocates only the digest string. A map (or a copy of the
// recipe) creeping back in shows in the first count, a map built to be
// hashed in the last.
func TestPoolAssignmentAllocs(t *testing.T) {
	in := miniflinkPools()
	p := testgen.BuildPools(in.pre.Test, slices.Clone(in.insts), 0)[0]
	if len(p.Members) < 4 {
		t.Fatalf("largest miniflink pool has %d members, want several", len(p.Members))
	}
	asn := in.gen.Builder(&in.pre.Report)
	leaf := asn.Leaf(p.Members[0])
	for _, r := range []struct {
		what   string
		recipe testgen.Recipe
	}{{"pool", asn.Pooled(p)}, {"leaf", leaf.Hetero}, {"homogeneous arm", leaf.Homo[0]}} {
		if allocs := testing.AllocsPerRun(20, func() { sinkAssigner = r.recipe.Assigner() }); allocs != 0 {
			t.Fatalf("naming a %s's assigner made %.0f allocations, want 0", r.what, allocs)
		}
	}
	as := asn.Pooled(p).Assigner()
	keys := lookupKeys(&in.pre.Report, append(in.params, "q.outside"))
	if allocs := testing.AllocsPerRun(20, func() {
		for _, k := range keys {
			sinkValue, _ = as.Lookup(k)
		}
	}); allocs != 0 {
		t.Fatalf("%d lookups in a pool of %d members made %.0f allocations, want 0", len(keys), len(p.Members), allocs)
	}
	if raceEnabled {
		return // the scratch pool drops what it is handed under -race
	}
	if allocs := testing.AllocsPerRun(20, func() { sinkDigest = asn.Pooled(p).Digest() }); allocs > 1 {
		t.Fatalf("digesting a pooled recipe made %.0f allocations, want 1 (the digest)", allocs)
	}
}

// A homogeneous arm is digested once per item: asking for it again, and
// its digest, as every other instance of its parameter and value does,
// allocates nothing.
func TestHomoArmReuseAllocs(t *testing.T) {
	in := miniflinkPools()
	inst := in.insts[0]
	asn := in.gen.Builder(&in.pre.Report)
	digest := asn.Homo(inst.Param, inst.Pair.A).Digest()
	var again testgen.Recipe
	if allocs := testing.AllocsPerRun(20, func() {
		again = asn.Homo(inst.Param, inst.Pair.A)
		sinkDigest = again.Digest()
	}); allocs != 0 {
		t.Fatalf("a second request for arm (%s, %s) made %.0f allocations, want 0", inst.Param, inst.Pair.A, allocs)
	}
	if again.Digest() != digest {
		t.Fatalf("a second request for arm (%s, %s) digested a new arm", inst.Param, inst.Pair.A)
	}
}

// A recipe is executed over rounds and served from the cache when its
// item is resubmitted: a first builder's leaf (over several rounds) and
// pooled run all execute, and a resubmitted item's fresh builder has every
// trial served, a pooled run's allocating only the digest.
func TestServedTrialsBuildNoMap(t *testing.T) {
	in := miniflinkPools()
	app, err := apps.ByName("miniflink")
	if err != nil {
		t.Fatal(err)
	}
	test, err := app.Test(in.pre.Test)
	if err != nil {
		t.Fatal(err)
	}
	run := runner.New(app, runner.Options{BaseSeed: 1, DisableGate: true, MaxRounds: 2,
		Cache: memo.NewCache(app.Name, nil, nil), CacheLabelSeeded: true})
	inst := in.insts[0]
	pool := testgen.BuildPools(in.pre.Test, slices.Clone(in.insts), 0)[0]

	cold := in.gen.Builder(&in.pre.Report)
	res := run.RunAssignment(test, cold.Leaf(inst), inst.String())
	_, cost := run.RunPooledIn(obs.NoSpan, test, cold.Pooled(pool), "pool")
	if res.Rounds == 0 || res.Executions != res.Trials || cost.Executions != 1 {
		t.Fatalf("cold: %d rounds, %d of %d trials and %d pooled run executed; want every trial executed over rounds",
			res.Rounds, res.Executions, res.Trials, cost.Executions)
	}

	warm := in.gen.Builder(&in.pre.Report)
	res = run.RunAssignment(test, warm.Leaf(inst), inst.String())
	_, cost = run.RunPooledIn(obs.NoSpan, test, warm.Pooled(pool), "pool")
	if res.Executions != 0 || cost.Executions != 0 {
		t.Fatalf("warm: %d leaf and %d pooled executions, want every trial served", res.Executions, cost.Executions)
	}
	if raceEnabled {
		return // the digest's scratch buffer is pooled
	}
	allocs := testing.AllocsPerRun(20, func() { run.RunPooledIn(obs.NoSpan, test, warm.Pooled(pool), "pool") })
	t.Logf("a served pooled run of %d members: %.0f allocs", len(pool.Members), allocs)
	if allocs > 1 {
		t.Fatalf("a served pooled run made %.0f allocations, want 1 (the digest)", allocs)
	}
}

// An item's instances are built once: Instances allocates one exactly
// sized slice on top of what its filter walk (the one Count makes too)
// allocates, and BuildPools permutes them in place, allocating its index
// buffer and the pools whatever the instances it pools.
func TestInstancesBuiltOnce(t *testing.T) {
	in := miniflinkPools()
	opts := testgen.InstancesOptions{}
	insts := in.gen.Instances(in.pre, opts)
	if len(insts) != cap(insts) {
		t.Fatalf("Instances returned %d instances in a slice of capacity %d, want it exactly sized", len(insts), cap(insts))
	}
	walk := testing.AllocsPerRun(20, func() { in.gen.Count(in.pre, opts) })
	if allocs := testing.AllocsPerRun(20, func() { insts = in.gen.Instances(in.pre, opts) }); allocs > 2*walk+1 {
		t.Fatalf("Instances made %.0f allocations, want at most %.0f: two walks of %.0f and its slice", allocs, 2*walk+1, walk)
	}

	few := slices.Clone(insts[:2])
	small := testing.AllocsPerRun(20, func() { sinkPools = testgen.BuildPools(in.pre.Test, few, 0) })
	large := testing.AllocsPerRun(20, func() { sinkPools = testgen.BuildPools(in.pre.Test, insts, 0) })
	if large != small || large > 2 {
		t.Fatalf("BuildPools made %.0f allocations for %d instances and %.0f for %d, want the same, at most 2", large, len(insts), small, len(few))
	}
}
