package testgen

// ReductionCounts holds the Table 5 rows for one application: the number of
// test instances at each stage of the paper's reduction pipeline.
type ReductionCounts struct {
	// Original assumes the user tests every parameter on every unit test
	// with the same value/assignment selection but no pre-run knowledge
	// (paper Table 5 row 1).
	Original int64
	// AfterPreRun keeps only tests that start nodes and only (parameter,
	// group) combinations the pre-run saw used (row 2).
	AfterPreRun int64
	// AfterUncertainty additionally removes combinations read through
	// unmappable configuration objects (row 3).
	AfterUncertainty int64
	// Executed counts unit-test executions the pooled campaign actually
	// performed — pooled runs, splits, leaves, homogeneous arms, and
	// hypothesis-testing trials (row 4).
	Executed int64
	// ExecutionsSaved counts runs the execution cache avoided: canonical
	// homogeneous arms and pooled runs another instance already
	// performed under the identical (test, assignment, seed) key.
	// Executed + ExecutionsSaved is the cache-off cost of the campaign.
	ExecutionsSaved int64
}

// OriginalCount computes row 1: every unit test × every parameter's value
// pairs × every node group the application has (plus the client) × the four
// strategy/orientation combinations. The paper's assumption holds: the user
// knows the application's node types but not which tests exercise which
// parameters.
func (g *Generator) OriginalCount(numTests int, nodeTypes []string) int64 {
	perParam := int64(0)
	for _, p := range g.schema.Params() {
		if !g.InFilter(p.Name) {
			continue
		}
		perParam += int64(len(Pairs(p))) * int64(len(nodeTypes)+1) * 4
	}
	return int64(numTests) * perParam
}

// CountAfterPreRun computes row 2 over the pre-run reports. Rows 2 and 3
// are a function of the pre-runs alone: they count every parameter in the
// campaign's filter, whatever the campaign has quarantined by the time
// they are counted.
func (g *Generator) CountAfterPreRun(pres []PreRun) int64 {
	var n int64
	for _, pre := range pres {
		n += int64(g.count(pre, InstancesOptions{SkipUncertaintyFilter: true}, false))
	}
	return n
}

// CountAfterUncertainty computes row 3, as CountAfterPreRun.
func (g *Generator) CountAfterUncertainty(pres []PreRun) int64 {
	var n int64
	for _, pre := range pres {
		n += int64(g.count(pre, InstancesOptions{}, false))
	}
	return n
}
