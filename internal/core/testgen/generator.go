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
	"strings"
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
	// ruleTargets holds the parameters some dependency rule of the schema
	// (complete at New) sets: a recipe resolves a read of any other
	// parameter without looking its instances' rules up.
	ruleTargets map[string]bool

	mu sync.RWMutex
	// quarantined parameters are excluded from further generation (the
	// frequent-failer rule of §4 "Pooled testing").
	quarantined map[string]bool
	// filter, when non-nil, restricts generation to a parameter subset.
	filter map[string]bool
}

// New returns a generator over the application's schema.
func New(schema *confkit.Registry) *Generator {
	g := &Generator{schema: schema, quarantined: make(map[string]bool), ruleTargets: make(map[string]bool)}
	for _, p := range schema.Params() {
		for _, rule := range p.DependsOn {
			g.ruleTargets[rule.Then] = true
		}
	}
	return g
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
	n := g.Count(pre, opts)
	if n == 0 {
		return nil
	}
	out := make([]Instance, 0, n)
	g.walk(pre, opts, true, func(p *confkit.Param, groups []string) {
		vals := p.AutoValues()
		for i := range vals {
			for _, b := range vals[i+1:] {
				out = appendPair(out, pre, opts, p.Name, groups, Pair{A: vals[i], B: b})
			}
		}
	})
	return out
}

// appendPair appends one value pair's instances of param: per group, flip
// in both orientations, each followed by its round-robin twin where that
// applies.
func appendPair(out []Instance, pre PreRun, opts InstancesOptions, param string, groups []string, pair Pair) []Instance {
	for _, group := range groups {
		for _, reversed := range []bool{false, true} {
			out = append(out, Instance{
				Test: pre.Test, Param: param, Group: group,
				Strategy: StrategyFlip, Reversed: reversed, Pair: pair,
			})
			if roundRobin(&pre.Report, opts, group) {
				out = append(out, Instance{
					Test: pre.Test, Param: param, Group: group,
					Strategy: StrategyRoundRobin, Reversed: reversed, Pair: pair,
				})
			}
		}
	}
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

// Assignment is one leaf instance's heterogeneous assignment plus the
// homogeneous arms Definition 3.1 requires, one per value of its pair, as
// recipes: a trial the execution cache serves costs a digest, and one
// that executes hands the agent its recipe (Recipe.Assigner), never a map.
type Assignment struct {
	Hetero Recipe
	Homo   [2]Recipe
}

// AssignFor derives one instance's assignment against the node population
// the pre-run observed (see Builder.Leaf).
func (g *Generator) AssignFor(in Instance, rep *agent.Report) Assignment {
	return g.Builder(rep).Leaf(in)
}

// Builder derives every assignment of one work item from its pre-run
// report: the entity list is computed once, and each homogeneous arm
// (parameter, value) is digested at most once, then shared by every
// instance that asks for it — Definition 3.1's control group depends on
// the parameter and value, not on the instance. A Builder is not safe for
// concurrent use (an item executes sequentially), except for Lookup, which
// reads only what never changes.
type Builder struct {
	g *Generator
	// ents lists every (entity, index) the pre-run observed, in
	// memo.CompareEntries order.
	ents []agent.Key
	homo map[armKey]*homoArm
	// s is the entry buffer every recipe is written into, taken from
	// scratchPool on first use and handed back by Release.
	s *scratch
	// slot is the recipe an executed trial's agent reads (Assigner),
	// overwritten by the next; nil after Abandon.
	slot *Recipe
}

// armKey names one homogeneous arm.
type armKey struct{ param, value string }

// homoArm is one homogeneous arm's recipe and its digest, filled on first
// use and kept for the item. Its recipe is an instance of its parameter
// whose pair holds its value twice, so every entity gets the value.
type homoArm struct {
	in     [1]Instance
	digest string
}

// Builder returns the assignment builder for one pre-run report.
func (g *Generator) Builder(rep *agent.Report) *Builder {
	return &Builder{g: g, ents: entities(rep)}
}

// Release hands the builder's entry buffer on to the next item's builder.
// The builder stays usable: it takes a buffer again when it needs one.
func (b *Builder) Release() {
	if b.s == nil {
		return
	}
	clear(b.s.entries) // the pool is to hold no strings of this item
	clear(b.s.params)
	scratchPool.Put(b.s)
	b.s = nil
}

// Leaf names an instance's assignment: its heterogeneous recipe and the
// two shared homogeneous arms of its value pair.
func (b *Builder) Leaf(in Instance) Assignment {
	return Assignment{
		Hetero: Recipe{b: b, kind: leafRecipe, leaf: [1]Instance{in}},
		Homo:   [2]Recipe{b.Homo(in.Param, in.Pair.A), b.Homo(in.Param, in.Pair.B)},
	}
}

// Homo names the homogeneous arm giving every entity value for param.
func (b *Builder) Homo(param, value string) Recipe {
	k := armKey{param, value}
	arm := b.homo[k]
	if arm == nil {
		arm = &homoArm{in: [1]Instance{{Param: param, Pair: Pair{A: value, B: value}}}}
		if b.homo == nil {
			b.homo = make(map[armKey]*homoArm)
		}
		b.homo[k] = arm
	}
	return Recipe{b: b, kind: homoRecipe, homo: arm}
}

// Pooled names a pooled run's heterogeneous assignment: every member's,
// merged in member order with the first writer of a key winning (a
// dependency rule of an earlier member may set a later member's
// parameter). A pooled run has no homogeneous arm. The recipe reads
// p.Members, and an executed one goes on reading them for as long as a
// goroutine of its execution runs, so they must not be written after.
func (b *Builder) Pooled(p Pool) Recipe {
	return Recipe{b: b, kind: poolRecipe, members: p.Members}
}

// recipeKind says which assignment a Recipe names.
type recipeKind uint8

const (
	emptyRecipe recipeKind = iota
	leafRecipe
	homoRecipe
	poolRecipe
)

// Recipe names one assignment of a Builder without building it: a leaf's
// heterogeneous assignment, a homogeneous arm or a pool's merged
// assignment. Digest hashes its entries; Lookup answers the agent's
// question for one key. The zero Recipe is the empty assignment (a
// pre-run's). A Recipe is a value, valid while its Builder is.
type Recipe struct {
	b       *Builder
	kind    recipeKind
	leaf    [1]Instance
	homo    *homoArm
	members []Instance
}

// instances lists, in order, the instances whose writes are the recipe's
// assignment: a leaf's own, a homogeneous arm's, a pool's members.
func (r *Recipe) instances() []Instance {
	switch r.kind {
	case leafRecipe:
		return r.leaf[:]
	case homoRecipe:
		return r.homo.in[:]
	}
	return r.members
}

// Digest is memo.HashAssignment of the recipe's map, taken from its sorted
// entries without building the map. A homogeneous arm digests once.
func (r Recipe) Digest() string {
	if r.kind == homoRecipe && r.homo.digest != "" {
		return r.homo.digest
	}
	digest := memo.HashEntries(r.entries())
	if r.kind == homoRecipe {
		r.homo.digest = digest
	}
	return digest
}

// Assigner returns the recipe as an executed trial's agent reads it: a
// copy of the recipe in its builder's slot, which the builder's next
// Assigner overwrites; nil for the empty recipe. An item's trials run one
// at a time, so the copy holds for the execution that reads it, and for
// its goroutines past its end once Abandon has handed the slot over.
func (r Recipe) Assigner() agent.Assigner {
	if r.kind == emptyRecipe {
		return nil
	}
	if r.b.slot == nil {
		r.b.slot = new(Recipe)
	}
	*r.b.slot = r
	return r.b.slot
}

// Abandon gives the slot the recipe's Assigner returned to an abandoned
// execution, whose goroutines may go on reading it: the builder's next
// Assigner writes a slot of its own.
func (r Recipe) Abandon() {
	if r.b != nil {
		r.b.slot = nil
	}
}

// Lookup returns the value the recipe assigns k and whether it assigns
// one: exactly the entry entries writes for k, found without writing any.
// On an entity the pre-run observed, each instance in order writes its own
// parameter, then that parameter's dependency rules for the value the
// entity gets, and the first writer of k.Param wins.
func (r *Recipe) Lookup(k agent.Key) (string, bool) {
	if r.kind == emptyRecipe {
		return "", false
	}
	ins, g := r.instances(), r.b.g
	rules, observed := g.ruleTargets[k.Param], false
	for i := range ins {
		in := &ins[i]
		if in.Param != k.Param && !rules {
			continue
		}
		if !observed && !slices.Contains(r.b.ents, agent.Key{NodeType: k.NodeType, NodeIndex: k.NodeIndex}) {
			return "", false
		}
		observed = true
		v := heteroValue(in, k)
		if in.Param == k.Param {
			return v, true
		}
		if p := g.schema.Lookup(in.Param); p != nil {
			for _, rule := range p.DependsOn {
				if rule.If == v && rule.Then == k.Param {
					return rule.To, true
				}
			}
		}
	}
	return "", false
}

// Entries returns a copy of the recipe's entries in memo.CompareEntries
// order, each key once: every key Lookup resolves, with its value.
func (r Recipe) Entries() []memo.Entry {
	return slices.Clone(r.entries())
}

// scratch is a builder's entry buffer: a recipe's entries and its
// instances' resolved parameters, grown to the largest recipe it held and
// passed from item to item through scratchPool.
type scratch struct {
	entries []memo.Entry
	params  []*confkit.Param
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// entries writes the recipe's assignment into its builder's buffer, valid
// until the builder writes its next recipe: entity by entity in
// memo.CompareEntries order. An entity's writes follow §4's rules — for
// each instance (a pool's in member order) its own key, then its
// parameter's dependency rules for the value it gets ("when testing p1
// with v1, set p2 to v2") — and the first write of a key wins: a stable
// sort of the entity's writes by parameter, each run cut to its first.
// Entities never share a key, so this is the first-writer-wins merge of the
// members' separate assignments.
func (r Recipe) entries() []memo.Entry {
	ins := r.instances()
	if len(ins) == 0 {
		return nil
	}
	b := r.b
	if b.s == nil {
		b.s = scratchPool.Get().(*scratch)
	}
	s := b.s
	es := s.entries[:0]
	s.params = s.params[:0]
	for i := range ins {
		s.params = append(s.params, b.g.schema.Lookup(ins[i].Param))
	}
	for _, k := range b.ents {
		start := len(es)
		for i := range ins {
			es = put(es, k, ins[i].Param, s.params[i], heteroValue(&ins[i], k))
		}
		seg := es[start:]
		if len(seg) > 1 {
			slices.SortStableFunc(seg, func(a, b memo.Entry) int { return strings.Compare(a.Key.Param, b.Key.Param) })
			seg = slices.CompactFunc(seg, func(a, b memo.Entry) bool { return a.Key.Param == b.Key.Param })
			es = es[:start+len(seg)]
		}
	}
	s.entries = es
	return es
}

// put appends entity k's writes for one parameter at value: its own key,
// then p's dependency rules on the same entity (p may be nil: no rules).
func put(es []memo.Entry, k agent.Key, param string, p *confkit.Param, value string) []memo.Entry {
	k.Param = param
	es = append(es, memo.Entry{Key: k, Value: value})
	if p == nil {
		return es
	}
	for _, rule := range p.DependsOn {
		if rule.If == value {
			k.Param = rule.Then
			es = append(es, memo.Entry{Key: k, Value: rule.To})
		}
	}
	return es
}

// heteroValue is the value in assigns entity k: the group's value on its
// group (on every other node of it under round-robin), the other value
// everywhere else.
func heteroValue(in *Instance, k agent.Key) string {
	groupVal, otherVal := in.Pair.A, in.Pair.B
	if in.Reversed {
		groupVal, otherVal = in.Pair.B, in.Pair.A
	}
	if k.NodeType != in.Group || (in.Strategy == StrategyRoundRobin && k.NodeIndex%2 == 1) {
		return otherVal
	}
	return groupVal
}

// entities lists every (entity, index) the pre-run observed — each started
// node type's indexes, and the unit test itself at 0 — in
// memo.CompareEntries order.
func entities(rep *agent.Report) []agent.Key {
	types := make([]string, 0, len(rep.NodesStarted)+1)
	n := 1
	for t, c := range rep.NodesStarted {
		types = append(types, t)
		n += max(c, 0) * 2
	}
	types = append(types, agent.UnitTestEntity)
	sort.Strings(types)
	out := make([]agent.Key, 0, n)
	for _, t := range types {
		if t == agent.UnitTestEntity {
			out = append(out, agent.Key{NodeType: t, NodeIndex: 0})
			continue
		}
		// Allow headroom for nodes a test starts later (AddDataNode after
		// filling the cluster): double the observed population.
		for i := 0; i < rep.NodesStarted[t]*2; i++ {
			out = append(out, agent.Key{NodeType: t, NodeIndex: i})
		}
	}
	return out
}
