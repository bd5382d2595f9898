package testgen_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
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

// lookupKeys is every key a recipe over rep is checked at: each entity the
// pre-run observed and one it did not (just past the first node type's
// last index), each with every parameter of params.
func lookupKeys(rep *agent.Report, params []string) []agent.Key {
	var types []string
	for nt := range rep.NodesStarted {
		types = append(types, nt)
	}
	slices.Sort(types)
	ents := []agent.Key{{NodeType: agent.UnitTestEntity}}
	for _, nt := range types {
		for i := 0; i < 2*rep.NodesStarted[nt]; i++ {
			ents = append(ents, agent.Key{NodeType: nt, NodeIndex: i})
		}
	}
	if len(types) > 0 {
		ents = append(ents, agent.Key{NodeType: types[0], NodeIndex: 2 * max(rep.NodesStarted[types[0]], 0)})
	}
	var keys []agent.Key
	for _, e := range ents {
		for _, p := range params {
			e.Param = p
			keys = append(keys, e)
		}
	}
	return keys
}

// lookupsMatch reports the first key at which the agent's view of r
// (Recipe.Assigner) differs from want, if any.
func lookupsMatch(r testgen.Recipe, want map[agent.Key]string, keys []agent.Key) (agent.Key, bool) {
	as := r.Assigner()
	for _, k := range keys {
		v, ok := as.Lookup(k)
		if w, wok := want[k]; v != w || ok != wok {
			return k, false
		}
	}
	return agent.Key{}, true
}

// The builder's assignments and digests are key for key the original
// per-instance derivation's: heterogeneous and homogeneous assignments
// against the original AssignFor, pooled ones against the original
// Pool.Assignment at two pool bounds, both as entries and as the agent
// reads them (Lookup at every entity and parameter: for a leaf and its
// arms, the parameters it or a dependency rule can write), and every
// recipe's digest against HashAssignment of the original map.
func TestBuilderMatchesReference(t *testing.T) {
	t.Parallel()
	for _, a := range fiveAppPreRuns() {
		gen := testgen.New(a.app.Schema())
		var targets []string
		for _, p := range a.app.Schema().Params() {
			for _, rule := range p.DependsOn {
				targets = append(targets, rule.Then)
			}
		}
		for _, pre := range a.pres {
			insts := gen.Instances(pre, testgen.InstancesOptions{})
			asn := gen.Builder(&pre.Report)
			keys := lookupKeys(&pre.Report, a.app.Schema().Names())
			leafKeys := make(map[string][]agent.Key)
			for _, in := range insts {
				if leafKeys[in.Param] == nil {
					leafKeys[in.Param] = lookupKeys(&pre.Report, append([]string{in.Param}, targets...))
				}
				keys := leafKeys[in.Param]
				got := asn.Leaf(in)
				hetero, homo := testgen.RefAssignFor(gen, in, &pre.Report)
				if want := memo.HashAssignment(hetero); got.Hetero.Digest() != want {
					t.Fatalf("%s/%s: heterogeneous digest %s, want %s", a.app.Name, in, got.Hetero.Digest(), want)
				}
				if !maps.Equal(testgen.AssignOf(got.Hetero), hetero) {
					t.Fatalf("%s/%s: heterogeneous map differs from the original", a.app.Name, in)
				}
				if k, ok := lookupsMatch(got.Hetero, hetero, keys); !ok {
					t.Fatalf("%s/%s: heterogeneous Lookup(%v) differs from the original", a.app.Name, in, k)
				}
				if len(got.Homo) != len(homo) {
					t.Fatalf("%s/%s: %d homogeneous arms, want %d", a.app.Name, in, len(got.Homo), len(homo))
				}
				for i, arm := range got.Homo {
					if want := memo.HashAssignment(homo[i]); arm.Digest() != want {
						t.Fatalf("%s/%s: arm %d digest %s, want %s", a.app.Name, in, i, arm.Digest(), want)
					}
					if !maps.Equal(testgen.AssignOf(arm), homo[i]) {
						t.Fatalf("%s/%s: homogeneous arm %d differs from the original", a.app.Name, in, i)
					}
					if k, ok := lookupsMatch(arm, homo[i], keys); !ok {
						t.Fatalf("%s/%s: homogeneous arm %d Lookup(%v) differs from the original", a.app.Name, in, i, k)
					}
				}
			}
			for _, maxPool := range []int{0, 2} {
				for _, p := range testgen.BuildPools(pre.Test, insts, maxPool) {
					want := testgen.RefPoolAssignment(gen, p, &pre.Report)
					if got := asn.Pooled(p).Digest(); got != memo.HashAssignment(want) {
						t.Fatalf("%s/%s: pooled digest (max %d, %d members) %s, want %s", a.app.Name, pre.Test, maxPool, len(p.Members), got, memo.HashAssignment(want))
					}
					if !maps.Equal(testgen.AssignOf(asn.Pooled(p)), want) {
						t.Fatalf("%s/%s: pooled map (max %d, %d members) differs from the original", a.app.Name, pre.Test, maxPool, len(p.Members))
					}
					if k, ok := lookupsMatch(asn.Pooled(p), want, keys); !ok {
						t.Fatalf("%s/%s: pooled Lookup(%v) (max %d, %d members) differs from the original", a.app.Name, pre.Test, k, maxPool, len(p.Members))
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
					if !maps.Equal(testgen.AssignOf(arm), homo[j]) || arm.Digest() != memo.HashAssignment(homo[j]) {
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
// original did by stable-sorting a clone, and its pools, in order, are the
// input slice it permuted in place.
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
					want := testgen.RefBuildPools(pre.Test, shuffled, maxPool)
					in := slices.Clone(shuffled)
					got := testgen.BuildPools(pre.Test, in, maxPool)
					if len(got) != len(want) {
						t.Fatalf("%s/%s max %d: %d pools, want %d", a.app.Name, pre.Test, maxPool, len(got), len(want))
					}
					rest := in
					for i := range got {
						if got[i].Test != want[i].Test || !slices.Equal(got[i].Members, want[i].Members) {
							t.Fatalf("%s/%s max %d: pool %d differs from the original", a.app.Name, pre.Test, maxPool, i)
						}
						if m := got[i].Members; len(m) > len(rest) || &m[0] != &rest[0] {
							t.Fatalf("%s/%s max %d: pool %d is not the next part of the input", a.app.Name, pre.Test, maxPool, i)
						}
						rest = rest[len(got[i].Members):]
					}
					if len(rest) != 0 {
						t.Fatalf("%s/%s max %d: %d instances of the input in no pool", a.app.Name, pre.Test, maxPool, len(rest))
					}
				}
			}
		}
	}
}

// fuzzInput hands out small choices from fuzz bytes, zero once they run
// out.
type fuzzInput []byte

func (f *fuzzInput) pick(n int) int {
	if len(*f) == 0 {
		return 0
	}
	v := int((*f)[0]) % n
	*f = (*f)[1:]
	return v
}

// recipeNames and recipeValues are what the fuzzed schema draws from: node
// types that sort before and after the unit test entity, parameter names
// a dependency rule can point at (one outside the schema), and few values,
// so that rules fire and overlap.
var (
	recipeNodeTypes = []string{"DN", "NN", "__a", "aux"}
	recipeParams    = []string{"a.x", "B", "c", "d.dep", "z"}
	recipeValues    = []string{"v0", "v1", "v2"}
)

// FuzzRecipeDigest holds every recipe a builder names to the reference
// derivations, over fuzzed schemas with overlapping dependency rules and
// fuzzed node populations: for each leaf (flip and round-robin, both
// directions), its homogeneous arms, BuildPools' pools and their halves,
// and pools of fuzz-chosen members in fuzz-chosen order, the digest is
// memo.HashAssignment of reference_test.go's map, Entries is that map
// sorted, and Lookup equals the map at every key of (the observed entities
// and one unobserved) × (the schema's parameters and q.outside).
func FuzzRecipeDigest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 2, 1, 3, 0, 2, 1, 1, 3, 1, 2, 0, 4, 2, 3, 255, 255, 255, 255, 2, 7, 1, 3, 0, 2, 4})
	f.Add([]byte{3, 1, 3, 3, 0, 0, 3, 3, 1, 1, 1, 2, 3, 4, 0, 2, 1, 1, 0, 3, 2, 2, 1, 0, 255, 127, 63, 31, 0, 5, 4, 3, 2, 1, 0})
	// Five parameters of three values, three rules each, that set one
	// another's parameters, on every node type.
	f.Add([]byte{4, 1, 3, 0, 1, 2, 1, 3, 0, 2, 0, 1, 1, 3, 0, 0, 1, 1, 2, 2, 0, 3, 0, 1, 3, 1, 1, 0, 0, 4, 1, 2, 5, 2,
		1, 3, 0, 0, 0, 2, 1, 1, 1, 2, 0, 1, 3, 1, 3, 2, 0, 1, 1, 2, 0, 0, 2, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1, 3, 1, 1, 0, 1, 1,
		2, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 7, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		schema := confkit.NewRegistry()
		nparams := 1 + in.pick(len(recipeParams))
		for _, name := range recipeParams[:nparams] {
			values := recipeValues[:2+in.pick(2)]
			p := confkit.Param{Name: name, Kind: confkit.String, Default: values[0], Candidates: values}
			for r := in.pick(4); r > 0; r-- {
				p.DependsOn = append(p.DependsOn, confkit.DependencyRule{
					If:   values[in.pick(len(values))],
					Then: append(recipeParams[:nparams:nparams], "q.outside")[in.pick(nparams+1)],
					To:   recipeValues[in.pick(len(recipeValues))],
				})
			}
			schema.Register(p)
		}
		nodes := make(map[string]int)
		usage := make(map[string]map[string]bool)
		for _, e := range append(slices.Clone(recipeNodeTypes), agent.UnitTestEntity) {
			if e != agent.UnitTestEntity {
				nodes[e] = in.pick(4)
			}
			usage[e] = make(map[string]bool)
			for _, name := range recipeParams[:nparams] {
				if in.pick(2) == 1 {
					usage[e][name] = true
				}
			}
		}
		rep := agent.Report{NodesStarted: nodes, Usage: usage}
		gen := testgen.New(schema)
		insts := gen.Instances(testgen.PreRun{Test: "T", Report: rep}, testgen.InstancesOptions{})
		b := gen.Builder(&rep)
		keys := lookupKeys(&rep, append(recipeParams[:nparams:nparams], "q.outside"))
		check := func(what string, r testgen.Recipe, want map[agent.Key]string) {
			t.Helper()
			if got := r.Digest(); got != memo.HashAssignment(want) {
				t.Fatalf("%s: digest %s, want %s", what, got, memo.HashAssignment(want))
			}
			if k, ok := lookupsMatch(r, want, keys); !ok {
				v, found := r.Lookup(k)
				t.Fatalf("%s: Lookup(%v) = %q, %v; want %q\n map %v", what, k, v, found, want[k], want)
			}
			es := r.Entries()
			if len(es) != len(want) || !slices.IsSortedFunc(es, memo.CompareEntries) {
				t.Fatalf("%s: %d entries, sorted %v; want the %d of the map, sorted", what, len(es), slices.IsSortedFunc(es, memo.CompareEntries), len(want))
			}
			for i, e := range es {
				if v, ok := want[e.Key]; !ok || v != e.Value || i > 0 && memo.CompareEntries(es[i-1], e) == 0 {
					t.Fatalf("%s: entry %d %v is not the map's", what, i, e)
				}
			}
		}
		for _, inst := range insts {
			hetero, homo := testgen.RefAssignFor(gen, inst, &rep)
			asn := b.Leaf(inst)
			check(inst.String()+" hetero", asn.Hetero, hetero)
			for i, arm := range asn.Homo {
				check(fmt.Sprintf("%s homo %d", inst, i), arm, homo[i])
			}
		}
		for _, maxPool := range []int{0, 2} {
			for _, p := range testgen.BuildPools("T", insts, maxPool) {
				check(fmt.Sprintf("pool of %d", len(p.Members)), b.Pooled(p), testgen.RefPoolAssignment(gen, p, &rep))
				if len(p.Members) > 1 {
					l, r := p.Split()
					check("left half", b.Pooled(l), testgen.RefPoolAssignment(gen, l, &rep))
					check("right half", b.Pooled(r), testgen.RefPoolAssignment(gen, r, &rep))
				}
			}
		}
		if len(insts) > 0 {
			p := testgen.Pool{Test: "T"}
			for n := 1 + in.pick(8); n > 0; n-- {
				p.Members = append(p.Members, insts[in.pick(len(insts))])
			}
			check(fmt.Sprintf("chosen pool of %d", len(p.Members)), b.Pooled(p), testgen.RefPoolAssignment(gen, p, &rep))
		}
	})
}
