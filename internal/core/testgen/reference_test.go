package testgen

import (
	"slices"
	"sort"
	"strings"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
)

// This file keeps the original per-instance derivations, one full copy
// each, as the references the item builder, Count and BuildPools are
// checked against (builder_test.go): the assignments are memo keys and
// seed inputs, so they must stay key for key what these produce.

// RefAssignFor is the original AssignFor: a fresh entity list, a fresh
// heterogeneous map and two fresh homogeneous maps per instance.
func RefAssignFor(g *Generator, in Instance, rep *agent.Report) (hetero map[agent.Key]string, homo []map[agent.Key]string) {
	ents := refEntities(rep)
	p := g.schema.Lookup(in.Param)
	hetero = make(map[agent.Key]string, len(ents))
	refHeteroInto(g, hetero, in, ents)
	homoA := make(map[agent.Key]string, len(ents))
	homoB := make(map[agent.Key]string, len(ents))
	for _, k := range ents {
		k.Param = in.Param
		refAssign(homoA, p, k, in.Pair.A)
		refAssign(homoB, p, k, in.Pair.B)
	}
	return hetero, []map[agent.Key]string{homoA, homoB}
}

// RefPoolAssignment is the original Pool.Assignment.
func RefPoolAssignment(g *Generator, pool Pool, rep *agent.Report) map[agent.Key]string {
	ents := refEntities(rep)
	pooled := make(map[agent.Key]string, len(ents)*len(pool.Members))
	for _, in := range pool.Members {
		refHeteroInto(g, pooled, in, ents)
	}
	return pooled
}

// RefBuildPools is the original BuildPools, which stable-sorted a clone of
// the instance slice.
func RefBuildPools(test string, instances []Instance, maxPool int) []Pool {
	sorted := slices.Clone(instances)
	slices.SortStableFunc(sorted, func(a, b Instance) int { return strings.Compare(a.Param, b.Param) })
	var runs []int
	for i := range sorted {
		if i == 0 || sorted[i].Param != sorted[i-1].Param {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(sorted))
	var pools []Pool
	for slot := 0; ; slot++ {
		var members []Instance
		for i := 0; i+1 < len(runs); i++ {
			if at := runs[i] + slot; at < runs[i+1] {
				members = append(members, sorted[at])
			}
		}
		if len(members) == 0 {
			return pools
		}
		step := len(members)
		if maxPool > 0 {
			step = maxPool
		}
		for start := 0; start < len(members); start += step {
			end := min(start+step, len(members))
			pools = append(pools, Pool{Test: test, Members: members[start:end]})
		}
	}
}

// RefInstances is the original Instances, with its own copy of §4's
// filters.
func RefInstances(g *Generator, pre PreRun, opts InstancesOptions) []Instance {
	rep := &pre.Report
	if len(rep.NodesStarted) == 0 {
		return nil
	}
	uncertain := make(map[string]bool, len(rep.UncertainParams))
	for _, p := range rep.UncertainParams {
		uncertain[p] = true
	}
	forced := make(map[string]bool, len(opts.ForceParams))
	for _, p := range opts.ForceParams {
		forced[p] = true
	}
	var out []Instance
	for _, p := range g.schema.Params() {
		if !g.InFilter(p.Name) || g.Quarantined(p.Name) {
			continue
		}
		if uncertain[p.Name] && !opts.SkipUncertaintyFilter {
			continue
		}
		var groups []string
		for entity, params := range rep.Usage {
			if params[p.Name] && (entity == agent.UnitTestEntity || rep.NodesStarted[entity] > 0) {
				groups = append(groups, entity)
			}
		}
		if len(groups) == 0 && forced[p.Name] {
			groups = []string{agent.UnitTestEntity}
			for entity, n := range rep.NodesStarted {
				if n > 0 {
					groups = append(groups, entity)
				}
			}
		}
		sort.Strings(groups)
		for _, pair := range Pairs(p) {
			for _, group := range groups {
				for _, reversed := range []bool{false, true} {
					out = append(out, Instance{
						Test: pre.Test, Param: p.Name, Group: group,
						Strategy: StrategyFlip, Reversed: reversed, Pair: pair,
					})
					if !opts.DisableRoundRobin && group != agent.UnitTestEntity && rep.NodesStarted[group] >= 2 {
						out = append(out, Instance{
							Test: pre.Test, Param: p.Name, Group: group,
							Strategy: StrategyRoundRobin, Reversed: reversed, Pair: pair,
						})
					}
				}
			}
		}
	}
	return out
}

func refHeteroInto(g *Generator, m map[agent.Key]string, in Instance, ents []agent.Key) {
	groupVal, otherVal := in.Pair.A, in.Pair.B
	if in.Reversed {
		groupVal, otherVal = in.Pair.B, in.Pair.A
	}
	p := g.schema.Lookup(in.Param)
	for _, k := range ents {
		k.Param = in.Param
		v := groupVal
		if k.NodeType != in.Group || (in.Strategy == StrategyRoundRobin && k.NodeIndex%2 == 1) {
			v = otherVal
		}
		refAssign(m, p, k, v)
	}
}

func refAssign(m map[agent.Key]string, p *confkit.Param, k agent.Key, value string) {
	if _, exists := m[k]; !exists {
		m[k] = value
	}
	if p == nil {
		return
	}
	for _, rule := range p.DependsOn {
		if rule.If != value {
			continue
		}
		dep := agent.Key{NodeType: k.NodeType, NodeIndex: k.NodeIndex, Param: rule.Then}
		if _, exists := m[dep]; !exists {
			m[dep] = rule.To
		}
	}
}

func refEntities(rep *agent.Report) []agent.Key {
	types := make([]string, 0, len(rep.NodesStarted))
	for t := range rep.NodesStarted {
		types = append(types, t)
	}
	sort.Strings(types)
	var out []agent.Key
	for _, t := range types {
		for i := 0; i < rep.NodesStarted[t]*2; i++ {
			out = append(out, agent.Key{NodeType: t, NodeIndex: i})
		}
	}
	return append(out, agent.Key{NodeType: agent.UnitTestEntity, NodeIndex: 0})
}
