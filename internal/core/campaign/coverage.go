package campaign

import (
	"sort"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
)

// OverrideApp wraps app so its Schema returns a copy of the app's registry
// with the given default overrides (param → new default) applied. The copy
// is derived once, here; neither the original app nor its registry is
// mutated, so differently-overridden wrappers of one app — concurrent
// campaigns in one process — each see their own defaults. Unknown parameter names
// are ignored. A nil or empty override map returns app unchanged.
func OverrideApp(app *harness.App, overrides map[string]string) *harness.App {
	if len(overrides) == 0 {
		return app
	}
	schema := app.Schema().WithDefaults(overrides)
	wrapped := *app
	wrapped.Schema = func() *confkit.Registry { return schema }
	return &wrapped
}

// coveragePlan derives, from the warm coverage index, (a) the per-test
// forced parameter sets and (b) the tests selection may skip.
//
// Forcing implements the full-dispatch fallback for conditionally-read
// parameters: a parameter read only under its heterogeneous value is
// invisible to the pre-run, so the §4 read filter would generate zero
// instances for it — silently. Any explicitly targeted parameter
// (opts.Params) therefore forces instance generation when the pre-run
// saw no read: on every test if no valid index entry anywhere records a
// read of it (cold index ⇒ all explicit params), or on exactly the
// tests whose index entry records one (a phase-2 edge from an earlier
// forced dispatch — which is what keeps conditional params generating
// on warm runs). Forcing is scoped to explicit params: a flat campaign
// keeps the paper's pre-run-filtered semantics unchanged.
//
// Deselection (opts.SelectCoverage) skips a test only when its index
// entry is valid for the current (seed, env key, schema) and its read
// set is disjoint from the campaign's parameter set — and never while
// any explicit param needs the global fallback, since full dispatch
// must reach every test. Unknown or stale entries keep the test.
func coveragePlan(schema *confkit.Registry, opts Options, tests []*harness.UnitTest) (force map[string][]string, deselected []string) {
	ix := opts.CoverageIndex

	// Validity is per test under the current inputs; compute once.
	valid := make(map[string]bool)
	if ix != nil {
		for name := range ix.Tests {
			valid[name] = ix.Valid(name, opts.Seed, opts.CoverageKey, schema)
		}
	}
	hasEdge := func(test, param string) bool {
		if !valid[test] {
			return false
		}
		for _, p := range ix.Tests[test].Params {
			if p == param {
				return true
			}
		}
		return false
	}

	globalForce := false
	if len(opts.Params) > 0 {
		var forceGlobal []string
		for _, p := range opts.Params {
			if schema.Lookup(p) == nil {
				continue // not in the schema: nothing to generate
			}
			edge := false
			for name := range valid {
				if hasEdge(name, p) {
					edge = true
					break
				}
			}
			if !edge {
				forceGlobal = append(forceGlobal, p)
			}
		}
		globalForce = len(forceGlobal) > 0
		force = make(map[string][]string, len(tests))
		for _, t := range tests {
			set := append([]string(nil), forceGlobal...)
			for _, p := range opts.Params {
				if hasEdge(t.Name, p) && !containsStr(set, p) {
					set = append(set, p)
				}
			}
			if len(set) > 0 {
				sort.Strings(set)
				force[t.Name] = set
			}
		}
	}

	if opts.SelectCoverage && ix != nil && !globalForce {
		want := make(map[string]bool, len(opts.Params))
		for _, p := range opts.Params {
			want[p] = true
		}
		for _, t := range tests {
			if !valid[t.Name] {
				continue
			}
			entry := ix.Tests[t.Name]
			keep := false
			if len(want) > 0 {
				for _, p := range entry.Params {
					if want[p] {
						keep = true
						break
					}
				}
			} else {
				// Flat campaign: only tests that read nothing at all can
				// be skipped.
				keep = len(entry.Params) > 0
			}
			if !keep {
				deselected = append(deselected, t.Name)
			}
		}
		sort.Strings(deselected)
	}
	return force, deselected
}

// dropTests removes the named tests, preserving order.
func dropTests(tests []*harness.UnitTest, names []string) []*harness.UnitTest {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	out := tests[:0]
	for _, t := range tests {
		if !drop[t.Name] {
			out = append(out, t)
		}
	}
	return out
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
