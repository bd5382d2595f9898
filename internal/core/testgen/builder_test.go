package testgen_test

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/testgen"
)

// appPreRuns is every unit test of the five applications, pre-run once at
// seed 1: the inputs the builder, Count and BuildPools are checked over.
type appPreRuns struct {
	app  *harness.App
	pres []testgen.PreRun
}

var fiveAppPreRuns = sync.OnceValue(func() []appPreRuns {
	var out []appPreRuns
	for _, app := range apps.All() {
		run := runner.New(app, runner.Options{BaseSeed: 1})
		a := appPreRuns{app: app}
		for i := range app.Tests {
			a.pres = append(a.pres, run.PreRun(&app.Tests[i]))
		}
		out = append(out, a)
	}
	return out
})

// The builder's maps and digests are key for key the original
// per-instance derivation's: heterogeneous and homogeneous maps against
// the original AssignFor, digests against HashAssignment of those maps,
// pooled maps against the original Pool.Assignment at two pool bounds.
func TestBuilderMatchesReference(t *testing.T) {
	t.Parallel()
	for _, a := range fiveAppPreRuns() {
		gen := testgen.New(a.app.Schema())
		for _, pre := range a.pres {
			insts := gen.Instances(pre, testgen.InstancesOptions{})
			asn := gen.Builder(&pre.Report)
			for _, in := range insts {
				got := asn.Leaf(in)
				hetero, homo := testgen.RefAssignFor(gen, in, &pre.Report)
				if !maps.Equal(got.Hetero, hetero) {
					t.Fatalf("%s/%s: heterogeneous map differs from the original", a.app.Name, in)
				}
				if len(got.Homo) != len(homo) {
					t.Fatalf("%s/%s: %d homogeneous arms, want %d", a.app.Name, in, len(got.Homo), len(homo))
				}
				for i, arm := range got.Homo {
					if !maps.Equal(arm.Assign, homo[i]) {
						t.Fatalf("%s/%s: homogeneous arm %d differs from the original", a.app.Name, in, i)
					}
					if want := memo.HashAssignment(homo[i]); arm.Digest != want {
						t.Fatalf("%s/%s: arm %d digest %s, want %s", a.app.Name, in, i, arm.Digest, want)
					}
				}
			}
			for _, maxPool := range []int{0, 2} {
				for _, p := range testgen.BuildPools(pre.Test, insts, maxPool) {
					if !maps.Equal(asn.Pooled(p), testgen.RefPoolAssignment(gen, p, &pre.Report)) {
						t.Fatalf("%s/%s: pooled map (max %d, %d members) differs from the original", a.app.Name, pre.Test, maxPool, len(p.Members))
					}
				}
			}
		}
	}
}

// Shared homogeneous arms are read-only: after every instance that shares
// them has run, each is still what the original derivation builds.
func TestSharedArmsUnchangedByRuns(t *testing.T) {
	t.Parallel()
	for _, a := range fiveAppPreRuns() {
		if a.app.Name != "miniyarn" && a.app.Name != "miniflink" {
			continue
		}
		gen := testgen.New(a.app.Schema())
		run := runner.New(a.app, runner.Options{BaseSeed: 1, MaxRounds: 2})
		for i, pre := range a.pres {
			insts := gen.Instances(pre, testgen.InstancesOptions{})
			insts = insts[:min(len(insts), 16)]
			asn := gen.Builder(&pre.Report)
			for _, in := range insts {
				run.RunAssignment(&a.app.Tests[i], asn.Leaf(in), in.String())
			}
			for _, in := range insts {
				_, homo := testgen.RefAssignFor(gen, in, &pre.Report)
				for j, arm := range asn.Leaf(in).Homo {
					if !maps.Equal(arm.Assign, homo[j]) || arm.Digest != memo.HashAssignment(homo[j]) {
						t.Fatalf("%s/%s: arm %d changed while its instances ran", a.app.Name, in, j)
					}
				}
			}
		}
	}
}

// Count is len(Instances) under every option combination, with and without
// quarantined parameters, and Instances is the original generation's.
func TestCountMatchesInstances(t *testing.T) {
	t.Parallel()
	for _, a := range fiveAppPreRuns() {
		params := a.app.Schema().Params()
		some := []string{params[0].Name, params[len(params)/2].Name, params[len(params)-1].Name}
		all := make([]string, len(params))
		for i, p := range params {
			all[i] = p.Name
		}
		for _, quarantined := range []bool{false, true} {
			gen := testgen.New(a.app.Schema())
			if quarantined {
				for i := 0; i < len(params); i += 3 {
					gen.Quarantine(params[i].Name)
				}
			}
			for _, force := range [][]string{nil, some, all} {
				for mask := 0; mask < 4; mask++ {
					opts := testgen.InstancesOptions{
						SkipUncertaintyFilter: mask&1 != 0,
						DisableRoundRobin:     mask&2 != 0,
						ForceParams:           force,
					}
					for _, pre := range a.pres {
						insts := gen.Instances(pre, opts)
						if !reflect.DeepEqual(insts, testgen.RefInstances(gen, pre, opts)) {
							t.Fatalf("%s/%s %+v quarantine=%v: Instances differs from the original", a.app.Name, pre.Test, opts, quarantined)
						}
						if n := gen.Count(pre, opts); n != len(insts) {
							t.Fatalf("%s/%s %+v quarantine=%v: Count = %d, len(Instances) = %d", a.app.Name, pre.Test, opts, quarantined, n, len(insts))
						}
					}
				}
			}
		}
	}
}

// The Table 5 rows count what an unquarantined generator generates, and a
// quarantine changes neither.
func TestReductionRowsIgnoreQuarantine(t *testing.T) {
	t.Parallel()
	for _, a := range fiveAppPreRuns() {
		gen := testgen.New(a.app.Schema())
		var afterPre, afterUnc int64
		for _, pre := range a.pres {
			afterPre += int64(len(gen.Instances(pre, testgen.InstancesOptions{SkipUncertaintyFilter: true})))
			afterUnc += int64(len(gen.Instances(pre, testgen.InstancesOptions{})))
		}
		for _, p := range a.app.Schema().Params() {
			gen.Quarantine(p.Name)
		}
		if got := gen.CountAfterPreRun(a.pres); got != afterPre {
			t.Errorf("%s: after pre-run %d with everything quarantined, want %d", a.app.Name, got, afterPre)
		}
		if got := gen.CountAfterUncertainty(a.pres); got != afterUnc {
			t.Errorf("%s: after uncertainty %d with everything quarantined, want %d", a.app.Name, got, afterUnc)
		}
	}
}

// BuildPools groups by parameter whatever the input order, exactly as the
// original did by stable-sorting a clone.
func TestBuildPoolsShuffledMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for _, a := range fiveAppPreRuns() {
		gen := testgen.New(a.app.Schema())
		for _, pre := range a.pres {
			insts := gen.Instances(pre, testgen.InstancesOptions{})
			for round := 0; round < 3; round++ {
				shuffled := slices.Clone(insts)
				if round > 0 {
					rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				}
				for _, maxPool := range []int{0, 2, 3} {
					got := testgen.BuildPools(pre.Test, shuffled, maxPool)
					want := testgen.RefBuildPools(pre.Test, shuffled, maxPool)
					if len(got) != len(want) {
						t.Fatalf("%s/%s max %d: %d pools, want %d", a.app.Name, pre.Test, maxPool, len(got), len(want))
					}
					for i := range got {
						if got[i].Test != want[i].Test || !slices.Equal(got[i].Members, want[i].Members) {
							t.Fatalf("%s/%s max %d: pool %d differs from the original", a.app.Name, pre.Test, maxPool, i)
						}
					}
				}
			}
		}
	}
}
