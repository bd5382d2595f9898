package runner

import (
	"sort"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// The paper's §4 leaves dependency rules ("when testing p1 with v1, set p2
// to v2") to the developer and names automatic extraction as future work.
// SuggestDependencies implements a dynamic version of that future work:
// run a unit test once per candidate value of a parameter — homogeneously,
// so no heterogeneity effects interfere — and diff the observed read sets.
// A parameter read only under one value is conditionally coupled to it and
// is a candidate for a confkit.DependencyRule.

// DependencySuggestion reports one conditional coupling: while Param held
// When, the test read ThenParams; under some other candidate value it did
// not.
type DependencySuggestion struct {
	Test       string
	Param      string
	When       string
	ThenParams []string
}

// SuggestDependencies analyzes the given parameters (all candidates of
// each) against one unit test. Parameters with more than maxCandidates
// candidate values are skipped (the analysis runs the test once per value).
func (r *Runner) SuggestDependencies(test *harness.UnitTest, schema *confkit.Registry, params []string) []DependencySuggestion {
	const maxCandidates = 4

	// Pre-run to learn the node population for homogeneous assignment.
	pre := r.PreRun(test)
	asn := testgen.New(schema).Builder(&pre.Report)

	var out []DependencySuggestion
	for _, name := range params {
		p := schema.Lookup(name)
		if p == nil {
			continue
		}
		values := p.AutoValues()
		if len(values) < 2 || len(values) > maxCandidates {
			continue
		}
		readsByValue := make(map[string]map[string]bool, len(values))
		for _, v := range values {
			outc, _, _ := r.runTrial(obs.NoSpan, new(Result), trial{test: test, recipe: asn.Homo(name, v), label: "depsuggest/" + name, arm: v, full: true})
			readsByValue[v] = unionReads(outc.Report.Usage)
		}
		for _, v := range values {
			only := make(map[string]bool)
			for q := range readsByValue[v] {
				if q == name {
					continue
				}
				missingSomewhere := false
				for _, w := range values {
					if w != v && !readsByValue[w][q] {
						missingSomewhere = true
						break
					}
				}
				if missingSomewhere {
					only[q] = true
				}
			}
			if len(only) == 0 {
				continue
			}
			sugg := DependencySuggestion{Test: pre.Test, Param: name, When: v}
			for q := range only {
				sugg.ThenParams = append(sugg.ThenParams, q)
			}
			sort.Strings(sugg.ThenParams)
			out = append(out, sugg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Param != out[j].Param {
			return out[i].Param < out[j].Param
		}
		return out[i].When < out[j].When
	})
	return out
}

func unionReads(usage map[string]map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for _, params := range usage {
		for p := range params {
			out[p] = true
		}
	}
	return out
}
