// Package testgen implements ZebraConf's TestGenerator (paper §4): it
// decides which unit tests to run with which heterogeneous configurations,
// applying the paper's reduction techniques — independent parameters,
// representative value pairs, representative assignment strategies, pre-run
// filtering, uncertainty exclusion, and pooled testing.
package testgen

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/memo"
)

// Strategy names the two representative value-assignment strategies of §4.
type Strategy string

const (
	// StrategyFlip assigns one value to every node of the target group and
	// the other value to every other entity: heterogeneity ACROSS types.
	StrategyFlip Strategy = "flip"
	// StrategyRoundRobin alternates the two values across the nodes of the
	// target group (and gives the second value to everyone else):
	// heterogeneity WITHIN a type.
	StrategyRoundRobin Strategy = "rr"
)

// Pair is one unordered pair of candidate values for a parameter.
type Pair struct {
	A, B string
}

// Pairs enumerates the value pairs to test for a parameter, following the
// §4 selection policy via Param.AutoValues.
func Pairs(p *confkit.Param) []Pair {
	vals := p.AutoValues()
	var out []Pair
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			out = append(out, Pair{A: vals[i], B: vals[j]})
		}
	}
	return out
}

// Instance is one leaf test instance: a unit test, one parameter, and a
// fully specified way to assign its two values to nodes.
type Instance struct {
	Test     string
	Param    string
	Group    string // node type, or agent.UnitTestEntity
	Strategy Strategy
	// Reversed swaps which value the group receives.
	Reversed bool
	Pair     Pair
}

// String renders an instance compactly for logs and reports.
func (in Instance) String() string {
	dir := "fwd"
	if in.Reversed {
		dir = "rev"
	}
	return fmt.Sprintf("%s/%s@%s[%s,%s](%s<->%s)", in.Test, in.Param, in.Group, in.Strategy, dir, in.Pair.A, in.Pair.B)
}

// PreRun couples a unit test with its pre-run report.
type PreRun struct {
	Test   string
	Report agent.Report
}

// Generator derives test instances for one application. Its mutating
// methods (Quarantine, SetFilter) and readers are safe for concurrent use
// by campaign workers.
type Generator struct {
	schema *confkit.Registry

	mu sync.RWMutex
	// quarantined parameters are excluded from further generation (the
	// frequent-failer rule of §4 "Pooled testing").
	quarantined map[string]bool
	// filter, when non-nil, restricts generation to a parameter subset.
	filter map[string]bool
}

// New returns a generator over the application's schema.
func New(schema *confkit.Registry) *Generator {
	return &Generator{schema: schema, quarantined: make(map[string]bool)}
}

// SetFilter restricts generation to the given parameters.
func (g *Generator) SetFilter(params []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.filter = make(map[string]bool, len(params))
	for _, p := range params {
		g.filter[p] = true
	}
}

// InFilter reports whether param is part of the campaign (always true
// without a filter).
func (g *Generator) InFilter(param string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.filter == nil || g.filter[param]
}

// Quarantine marks a parameter as already-known-unsafe; no further
// instances are generated for it.
func (g *Generator) Quarantine(param string) {
	g.mu.Lock()
	g.quarantined[param] = true
	g.mu.Unlock()
}

// Quarantined reports whether param is quarantined.
func (g *Generator) Quarantined(param string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.quarantined[param]
}

// eligibleGroups appends to groups[:0] the entities that actually read
// param in the pre-run, sorted (the §4 filtering rule).
func eligibleGroups(groups []string, rep *agent.Report, param string) []string {
	groups = groups[:0]
	for entity, params := range rep.Usage {
		if !params[param] {
			continue
		}
		if entity != agent.UnitTestEntity && rep.NodesStarted[entity] == 0 {
			continue
		}
		groups = append(groups, entity)
	}
	sort.Strings(groups)
	return groups
}

// fallbackGroups appends to groups[:0] the full-dispatch entity set for
// forced parameters: every started node type plus the unit test, sorted.
// Without pre-run read evidence there is no sharper assignment target
// than "everyone".
func fallbackGroups(groups []string, rep *agent.Report) []string {
	groups = append(groups[:0], agent.UnitTestEntity)
	for entity, n := range rep.NodesStarted {
		if n > 0 {
			groups = append(groups, entity)
		}
	}
	sort.Strings(groups)
	return groups
}

// InstancesOptions tunes instance generation, mainly for the Table 5
// ablation rows.
type InstancesOptions struct {
	// SkipUncertaintyFilter keeps instances whose parameter was read
	// through an unmappable configuration object (Table 5 row 2 counts
	// instances before this filter removes them).
	SkipUncertaintyFilter bool
	// DisableRoundRobin drops the within-type strategy (the E12 ablation:
	// same-type heterogeneity bugs become invisible).
	DisableRoundRobin bool
	// ForceParams lists parameters that must generate instances even when
	// the pre-run observed no entity reading them: coverage-driven
	// selection's full-dispatch fallback. A parameter read only under its
	// heterogeneous value (a conditional read) is invisible to the
	// pre-run — the §4 filter would silently drop it — so forced params
	// fall back to assigning every started node type plus the unit test.
	ForceParams []string
}

// Instances generates every leaf instance for one pre-run unit test,
// applying the §4 reductions: tests that start no nodes produce nothing;
// parameters are only assigned to groups that read them; round-robin is
// only emitted for groups with at least two nodes; uncertain (test,
// parameter) combinations are excluded.
func (g *Generator) Instances(pre PreRun, opts InstancesOptions) []Instance {
	var out []Instance
	g.walk(pre, opts, true, func(p *confkit.Param, groups []string) {
		for _, pair := range Pairs(p) {
			for _, group := range groups {
				for _, reversed := range []bool{false, true} {
					out = append(out, Instance{
						Test: pre.Test, Param: p.Name, Group: group,
						Strategy: StrategyFlip, Reversed: reversed, Pair: pair,
					})
					if roundRobin(&pre.Report, opts, group) {
						out = append(out, Instance{
							Test: pre.Test, Param: p.Name, Group: group,
							Strategy: StrategyRoundRobin, Reversed: reversed, Pair: pair,
						})
					}
				}
			}
		}
	})
	return out
}

// Count is len(Instances(pre, opts)) without generating the instances:
// per eligible parameter, its value pairs × Σ over its groups of 2 (flip,
// both orientations), or 4 where round-robin applies.
func (g *Generator) Count(pre PreRun, opts InstancesOptions) int {
	return g.count(pre, opts, true)
}

// count is Count, skipping quarantined parameters only when quarantine is
// set: generation honours the campaign's quarantine, the Table 5 rows are
// a function of the pre-runs alone.
func (g *Generator) count(pre PreRun, opts InstancesOptions, quarantine bool) int {
	n := 0
	g.walk(pre, opts, quarantine, func(p *confkit.Param, groups []string) {
		per := 0
		for _, group := range groups {
			per += 2
			if roundRobin(&pre.Report, opts, group) {
				per += 2
			}
		}
		values := len(p.AutoValues())
		n += values * (values - 1) / 2 * per
	})
	return n
}

// walk is §4's filter over one pre-run, the one shared by Instances and
// Count: a test that starts no nodes yields nothing; a parameter is
// skipped when outside the filter, quarantined (if quarantine is set) or
// read through an unmappable object (unless opts keeps those); it is
// yielded with the sorted entities that read it, or with every entity when
// forced and read by none. groups is reused across calls to yield.
func (g *Generator) walk(pre PreRun, opts InstancesOptions, quarantine bool, yield func(p *confkit.Param, groups []string)) {
	rep := &pre.Report
	if len(rep.NodesStarted) == 0 {
		return
	}
	var groups []string
	for _, p := range g.schema.Params() {
		if !g.InFilter(p.Name) || quarantine && g.Quarantined(p.Name) {
			continue
		}
		if !opts.SkipUncertaintyFilter && slices.Contains(rep.UncertainParams, p.Name) {
			continue
		}
		groups = eligibleGroups(groups, rep, p.Name)
		if len(groups) == 0 && slices.Contains(opts.ForceParams, p.Name) {
			groups = fallbackGroups(groups, rep)
		}
		if len(groups) > 0 {
			yield(p, groups)
		}
	}
}

// roundRobin reports whether group also gets the within-type strategy:
// a node type the pre-run started at least two of, unless disabled.
func roundRobin(rep *agent.Report, opts InstancesOptions, group string) bool {
	return !opts.DisableRoundRobin && group != agent.UnitTestEntity && rep.NodesStarted[group] >= 2
}

// Assignment is the concrete per-entity value map for one leaf instance
// run, plus the homogeneous arms Definition 3.1 requires. A pooled run has
// no homogeneous arm and builds only its heterogeneous map
// (Builder.Pooled).
type Assignment struct {
	Hetero map[agent.Key]string
	// Homo holds one fully homogeneous arm per distinct value.
	Homo []Arm
}

// Arm is one homogeneous arm: the assignment giving every entity one value
// of one parameter, and its canonical digest (memo.HashAssignment). The
// map may be shared with other instances of the same parameter and value,
// so it is read-only.
type Arm struct {
	Assign map[agent.Key]string
	Digest string
}

// AssignFor materializes one instance against the node population the
// pre-run observed (see Builder.Leaf).
func (g *Generator) AssignFor(in Instance, rep *agent.Report) Assignment {
	return g.Builder(rep).Leaf(in)
}

// Builder derives every assignment of one work item from its pre-run
// report: the entity list is computed once, and each homogeneous arm
// (parameter, value) is built and digested once, then shared by every
// instance that asks for it — Definition 3.1's control group depends on
// the parameter and value, not on the instance. A Builder is not safe for
// concurrent use; an item executes sequentially.
type Builder struct {
	g    *Generator
	ents []agent.Key
	homo map[armKey]Arm
}

// armKey names one homogeneous arm.
type armKey struct{ param, value string }

// Builder returns the assignment builder for one pre-run report.
func (g *Generator) Builder(rep *agent.Report) *Builder {
	return &Builder{g: g, ents: entities(rep)}
}

// Leaf materializes an instance, including dependency rules (§4: "when
// testing p1 with v1, set p2 to v2"): a fresh heterogeneous map and the
// two shared homogeneous arms of its value pair.
func (b *Builder) Leaf(in Instance) Assignment {
	hetero := make(map[agent.Key]string, len(b.ents))
	b.g.heteroInto(hetero, in, b.ents)
	return Assignment{Hetero: hetero, Homo: []Arm{b.Homo(in.Param, in.Pair.A), b.Homo(in.Param, in.Pair.B)}}
}

// Homo returns the homogeneous arm giving every entity value for param,
// building and digesting it on the first request.
func (b *Builder) Homo(param, value string) Arm {
	k := armKey{param, value}
	if arm, ok := b.homo[k]; ok {
		return arm
	}
	p := b.g.schema.Lookup(param)
	m := make(map[agent.Key]string, len(b.ents))
	for _, e := range b.ents {
		e.Param = param
		assign(m, p, e, value)
	}
	arm := Arm{Assign: m, Digest: memo.HashAssignment(m)}
	if b.homo == nil {
		b.homo = make(map[armKey]Arm)
	}
	b.homo[k] = arm
	return arm
}

// Pooled is a pooled run's heterogeneous assignment: every member's
// heterogeneous assignment, merged in member order with the first writer
// of a key winning (a dependency rule of an earlier member may set a later
// member's parameter). A pooled run has no homogeneous arm, so none is
// built.
func (b *Builder) Pooled(p Pool) map[agent.Key]string {
	pooled := make(map[agent.Key]string, len(b.ents)*len(p.Members))
	for _, in := range p.Members {
		b.g.heteroInto(pooled, in, b.ents)
	}
	return pooled
}

// heteroInto writes in's heterogeneous assignment over ents into m. Every
// write keeps a key m already holds, so writing several instances into one
// map is the first-writer-wins merge of their separate assignments: an
// entity's own key is written before its dependency keys and no two
// entities share a key, so within one instance nothing is ever overwritten.
func (g *Generator) heteroInto(m map[agent.Key]string, in Instance, ents []agent.Key) {
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
		assign(m, p, k, v)
	}
}

// assign stores value for key unless m already holds it, then applies p's
// dependency rules on the same entity (p may be nil: no rules).
func assign(m map[agent.Key]string, p *confkit.Param, k agent.Key, value string) {
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

// entities lists every (entity, index) the pre-run observed, node types
// sorted, then the unit test itself.
func entities(rep *agent.Report) []agent.Key {
	types := make([]string, 0, len(rep.NodesStarted))
	n := 1
	for t, c := range rep.NodesStarted {
		types = append(types, t)
		n += max(c, 0) * 2
	}
	sort.Strings(types)
	out := make([]agent.Key, 0, n)
	for _, t := range types {
		// Allow headroom for nodes a test starts later (AddDataNode after
		// filling the cluster): double the observed population.
		for i := 0; i < rep.NodesStarted[t]*2; i++ {
			out = append(out, agent.Key{NodeType: t, NodeIndex: i})
		}
	}
	return append(out, agent.Key{NodeType: agent.UnitTestEntity, NodeIndex: 0})
}
