package agent

import "sort"

// Report is what a pre-run of a unit test produces (paper §4 "Pre-run unit
// tests" and §6 Observation 3): which node types started, which parameters
// each entity read, and which parameters were read through configuration
// objects the rules could not place.
type Report struct {
	// NodesStarted counts started nodes per node type. Empty means the unit
	// test started no nodes and cannot test heterogeneous configurations.
	NodesStarted map[string]int
	// Usage maps an entity (a node type, or UnitTestEntity) to the set of
	// parameters read through configuration objects owned by that entity.
	Usage map[string]map[string]bool
	// UncertainParams are parameters read through objects whose final
	// ownership is uncertain, sorted. Test instances combining this unit
	// test with these parameters must be excluded (Observation 3).
	UncertainParams []string
	// UncertainConfs and TotalConfs count configuration objects by final
	// mapping state.
	UncertainConfs int
	TotalConfs     int
	// SharedConf reports whether a unit-test-owned object was handed to a
	// node's init function (the sharing statistic of §6.2).
	SharedConf bool
	// UsedConf reports whether the test touched any configuration at all.
	UsedConf bool
	// RefAnomalies counts RefToClone calls outside an init window.
	RefAnomalies int
}

// Report computes the pre-run report from the agent's final state. Call it
// after the unit test has finished and all nodes have stopped. An agent
// built with Options.Trial keeps none of this and returns the zero Report.
func (a *Agent) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.report {
		return Report{}
	}

	r := Report{
		NodesStarted: a.nodeCountsLocked(),
		Usage:        make(map[string]map[string]bool),
		SharedConf:   a.shared,
		UsedConf:     a.confUsed,
		RefAnomalies: a.refAnomalies,
	}

	addUse := func(entity string, params map[string]bool) {
		set := r.Usage[entity]
		if set == nil {
			set = make(map[string]bool, len(params))
			r.Usage[entity] = set
		}
		for p := range params {
			set[p] = true
		}
	}

	for entity, params := range a.threadReads { // StrategyThreadOnly only
		addUse(entity, params)
	}

	uncertain := make(map[string]bool)
	for _, e := range a.confs {
		if e.conf != nil {
			r.TotalConfs++
			if e.owner.kind == ownerUncertain {
				r.UncertainConfs++
			}
		}
		switch e.owner.kind {
		case ownerNode:
			if a.strategy == StrategyPaper && len(e.reads) > 0 {
				addUse(a.node(e.owner.nodeID).nodeType, e.reads)
			}
		case ownerUnitTest:
			if a.strategy == StrategyPaper && len(e.reads) > 0 {
				addUse(UnitTestEntity, e.reads)
			}
		default:
			for p := range e.reads {
				uncertain[p] = true
			}
		}
	}
	r.UncertainParams = sortedKeys(uncertain)
	return r
}

// NodeCounts returns the number of started nodes per type, usable while the
// test is still running.
func (a *Agent) NodeCounts() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nodeCountsLocked()
}

func (a *Agent) nodeCountsLocked() map[string]int {
	out := make(map[string]int)
	for i := range a.nodes {
		out[a.nodes[i].nodeType]++
	}
	return out
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
