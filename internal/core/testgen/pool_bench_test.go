package testgen_test

import (
	"reflect"
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
		asn := in.gen.Builder(&in.pre.Report)
		for _, p := range pools {
			sinkAssign = asn.Pooled(p)
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

// A pooled assignment allocates one map pre-sized to hold every member: a
// per-member map (or a homogeneous arm) creeping back in multiplies this
// count.
func TestPoolAssignmentAllocs(t *testing.T) {
	in := miniflinkPools()
	p := testgen.BuildPools(in.pre.Test, in.insts, 0)[0]
	if len(p.Members) < 4 {
		t.Fatalf("largest miniflink pool has %d members, want several", len(p.Members))
	}
	asn := in.gen.Builder(&in.pre.Report)
	allocs := testing.AllocsPerRun(20, func() { sinkAssign = asn.Pooled(p) })
	t.Logf("%s: %d members, %.0f allocs", in.pre.Test, len(p.Members), allocs)
	const bound = 6
	if allocs > bound {
		t.Fatalf("Builder.Pooled made %.0f allocations, want at most %d", allocs, bound)
	}
}

// A homogeneous arm is built once per item: asking for it again, as every
// other instance of its parameter and value does, allocates nothing.
func TestHomoArmReuseAllocs(t *testing.T) {
	in := miniflinkPools()
	inst := in.insts[0]
	asn := in.gen.Builder(&in.pre.Report)
	first := asn.Homo(inst.Param, inst.Pair.A)
	var again testgen.Arm
	if allocs := testing.AllocsPerRun(20, func() { again = asn.Homo(inst.Param, inst.Pair.A) }); allocs != 0 {
		t.Fatalf("a second request for arm (%s, %s) made %.0f allocations, want 0", inst.Param, inst.Pair.A, allocs)
	}
	if again.Digest != first.Digest || reflect.ValueOf(again.Assign).UnsafePointer() != reflect.ValueOf(first.Assign).UnsafePointer() {
		t.Fatalf("a second request for arm (%s, %s) built a new arm", inst.Param, inst.Pair.A)
	}
}
