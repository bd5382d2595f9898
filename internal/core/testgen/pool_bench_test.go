package testgen_test

import (
	"reflect"
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
	gen   *testgen.Generator
	pre   testgen.PreRun
	insts []testgen.Instance
}

// miniflinkPools pre-runs every miniflink unit test once per process.
var miniflinkPools = sync.OnceValue(func() flinkInput {
	app, err := apps.ByName("miniflink")
	if err != nil {
		panic(err)
	}
	in := flinkInput{gen: testgen.New(app.Schema())}
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
	sinkAssign map[agent.Key]string
	sinkDigest string
	sinkPools  []testgen.Pool
)

func BenchmarkPoolAssignment(b *testing.B) {
	in := miniflinkPools()
	pools := testgen.BuildPools(in.pre.Test, in.insts, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asn := in.gen.Builder(&in.pre.Report)
		for _, p := range pools {
			sinkAssign = asn.Pooled(p).Assign()
		}
		asn.Release()
	}
}

// BenchmarkPoolDigest is what a cache-served pooled run costs the builder:
// the digest alone.
func BenchmarkPoolDigest(b *testing.B) {
	in := miniflinkPools()
	pools := testgen.BuildPools(in.pre.Test, in.insts, 0)
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
	for i := 0; i < b.N; i++ {
		sinkPools = testgen.BuildPools(in.pre.Test, in.insts, 0)
	}
}

// A pooled assignment allocates one map sized to hold every member, and
// its digest only the digest string: a per-member map (or a homogeneous
// arm) creeping back in multiplies the first count, a map built to be
// hashed shows in the second.
func TestPoolAssignmentAllocs(t *testing.T) {
	in := miniflinkPools()
	p := testgen.BuildPools(in.pre.Test, in.insts, 0)[0]
	if len(p.Members) < 4 {
		t.Fatalf("largest miniflink pool has %d members, want several", len(p.Members))
	}
	asn := in.gen.Builder(&in.pre.Report)
	allocs := testing.AllocsPerRun(20, func() { sinkAssign = asn.Pooled(p).Assign() })
	t.Logf("%s: %d members, %.0f allocs", in.pre.Test, len(p.Members), allocs)
	const bound = 6
	if allocs > bound {
		t.Fatalf("building a pooled map made %.0f allocations, want at most %d", allocs, bound)
	}
	if raceEnabled {
		return // the scratch pool drops what it is handed under -race
	}
	if allocs := testing.AllocsPerRun(20, func() { sinkDigest = asn.Pooled(p).Digest() }); allocs > 1 {
		t.Fatalf("digesting a pooled recipe made %.0f allocations, want 1 (the digest)", allocs)
	}
}

// A homogeneous arm is digested and built once per item: asking for it
// again, its digest and its map, as every other instance of its parameter
// and value does, allocates nothing.
func TestHomoArmReuseAllocs(t *testing.T) {
	in := miniflinkPools()
	inst := in.insts[0]
	asn := in.gen.Builder(&in.pre.Report)
	first := asn.Homo(inst.Param, inst.Pair.A)
	digest, assign := first.Digest(), first.Assign()
	var again testgen.Recipe
	if allocs := testing.AllocsPerRun(20, func() {
		again = asn.Homo(inst.Param, inst.Pair.A)
		sinkDigest, sinkAssign = again.Digest(), again.Assign()
	}); allocs != 0 {
		t.Fatalf("a second request for arm (%s, %s) made %.0f allocations, want 0", inst.Param, inst.Pair.A, allocs)
	}
	if again.Digest() != digest || reflect.ValueOf(again.Assign()).UnsafePointer() != reflect.ValueOf(assign).UnsafePointer() {
		t.Fatalf("a second request for arm (%s, %s) built a new arm", inst.Param, inst.Pair.A)
	}
}

// An executed recipe builds its map once and a served one builds none. A
// first builder whose leaf (over several rounds) and pooled run all
// execute builds four maps: the heterogeneous one, two arms, the pool. A
// resubmitted item's fresh builder, every trial of which the execution
// cache serves, builds none, and a served pooled run allocates only the
// digest.
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
	pool := testgen.BuildPools(in.pre.Test, in.insts, 0)[0]

	cold := in.gen.Builder(&in.pre.Report)
	res := run.RunAssignment(test, cold.Leaf(inst), inst.String())
	_, cost := run.RunPooledIn(obs.NoSpan, test, cold.Pooled(pool), "pool")
	if res.Rounds == 0 || res.Executions != res.Trials || cost.Executions != 1 {
		t.Fatalf("cold: %d rounds, %d of %d trials and %d pooled run executed; want every trial executed over rounds",
			res.Rounds, res.Executions, res.Trials, cost.Executions)
	}
	if got := testgen.MapsBuilt(cold); got != 4 {
		t.Fatalf("cold: %d maps built, want 4 (hetero, two arms, pool) however many rounds", got)
	}

	warm := in.gen.Builder(&in.pre.Report)
	res = run.RunAssignment(test, warm.Leaf(inst), inst.String())
	_, cost = run.RunPooledIn(obs.NoSpan, test, warm.Pooled(pool), "pool")
	if res.Executions != 0 || cost.Executions != 0 {
		t.Fatalf("warm: %d leaf and %d pooled executions, want every trial served", res.Executions, cost.Executions)
	}
	if got := testgen.MapsBuilt(warm); got != 0 {
		t.Fatalf("warm: %d maps built for served trials, want 0", got)
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
// allocates, and BuildPools copies them once, into one exactly sized array,
// so its allocation count does not grow with the instances it pools.
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
	if large != small || large > 3 {
		t.Fatalf("BuildPools made %.0f allocations for %d instances and %.0f for %d, want the same, at most 3", large, len(insts), small, len(few))
	}
}
