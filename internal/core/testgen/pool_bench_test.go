package testgen_test

import (
	"sync"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/testgen"
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
	sinkPools  []testgen.Pool
)

func BenchmarkPoolAssignment(b *testing.B) {
	in := miniflinkPools()
	pools := testgen.BuildPools(in.pre.Test, in.insts, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pools {
			sinkAssign = p.Assignment(in.gen, &in.pre.Report)
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

// A pooled assignment allocates its entity list and one map pre-sized to
// hold every member: a per-member map (or a homogeneous arm) creeping
// back in multiplies this count.
func TestPoolAssignmentAllocs(t *testing.T) {
	in := miniflinkPools()
	p := testgen.BuildPools(in.pre.Test, in.insts, 0)[0]
	if len(p.Members) < 4 {
		t.Fatalf("largest miniflink pool has %d members, want several", len(p.Members))
	}
	allocs := testing.AllocsPerRun(20, func() { p.Assignment(in.gen, &in.pre.Report) })
	t.Logf("%s: %d members, %.0f allocs", in.pre.Test, len(p.Members), allocs)
	const bound = 6
	if allocs > bound {
		t.Fatalf("Pool.Assignment made %.0f allocations, want at most %d", allocs, bound)
	}
}
