// Package confkit implements the dedicated configuration class that
// ZebraConf instruments (paper Fig. 2a) and the parameter registry the
// TestGenerator draws candidate values from (paper §4).
//
// A Conf stores string-valued properties, falls back to registered defaults,
// and routes every constructor, Get, and Set through an optional Hooks
// implementation — exactly the intercept points the paper adds to Hadoop's
// Configuration class (newConf, cloneConf, refToCloneConf, interceptGet,
// interceptSet). When no hooks are installed a Conf behaves like a plain
// properties map, so the mini applications run unmodified outside ZebraConf.
package confkit

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind is the declared type of a configuration parameter, used by the
// TestGenerator's value-selection policy (paper §4, "Select parameter values
// to test").
type Kind int

const (
	// String parameters take free-form values; test values must be listed
	// explicitly in the registry.
	String Kind = iota
	// Bool parameters are tested with exactly true and false.
	Bool
	// Int parameters are tested with the default, a much larger value, a
	// much smaller value, and any sentinel values (0, -1) the application
	// gives special meaning.
	Int
	// Ticks parameters are durations expressed in abstract simtime ticks.
	// They select values like Int.
	Ticks
	// Enum parameters take one of a documented closed set of values.
	Enum
)

// String returns the kind name used in reports.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Ticks:
		return "ticks"
	case Enum:
		return "enum"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Safety is the ground-truth label of a parameter, baked into the mini
// applications' registries so a campaign can be scored automatically the way
// the paper's authors scored reports by manual analysis (§7.1). The
// TestGenerator and TestRunner never read this field.
type Safety int

const (
	// SafetyUnknown marks parameters with no seeded behaviour difference;
	// the expectation is that ZebraConf does not report them.
	SafetyUnknown Safety = iota
	// SafetyUnsafe marks parameters seeded with a true heterogeneous-unsafe
	// behaviour (Table 3 classes).
	SafetyUnsafe
	// SafetyFalsePositive marks parameters seeded with a trap that makes a
	// unit test fail under heterogeneous values for reasons that cannot
	// occur in a real distributed setting (§7.1 false-positive causes).
	SafetyFalsePositive
)

// String returns the label used in reports.
func (s Safety) String() string {
	switch s {
	case SafetyUnsafe:
		return "unsafe"
	case SafetyFalsePositive:
		return "false-positive"
	default:
		return "safe"
	}
}

// Param describes one configuration parameter.
type Param struct {
	// Name is the fully qualified parameter name, e.g.
	// "dfs.heartbeat.interval".
	Name string
	// Kind is the declared value type.
	Kind Kind
	// Default is the value returned by Conf.Get when the parameter is not
	// set. It must be parseable for the declared Kind.
	Default string
	// Candidates are the representative values the TestGenerator tests.
	// If empty, AutoValues derives them from Kind and Default.
	Candidates []string
	// Doc is a one-line description.
	Doc string
	// Truth is the ground-truth safety label (scoring only).
	Truth Safety
	// Why explains the seeded behaviour for unsafe and false-positive
	// parameters, mirroring Table 3's "why" column.
	Why string
	// DependsOn lists dependency rules: when this parameter is assigned
	// value If, parameter Then must be set to To on the same node
	// (paper §4 dependency rules, e.g. http policy vs. http/https address).
	DependsOn []DependencyRule
}

// DependencyRule states "if this parameter is set to If, also set Then=To".
type DependencyRule struct {
	If   string
	Then string
	To   string
}

// AutoValues returns the candidate test values for p following the paper's
// selection policy: booleans get {true,false}; enums get their candidate
// list; numeric parameters get the default, 10× the default, a tenth of the
// default (minimum 1), and the sentinels 0 and -1 when they appear in the
// candidate list. Explicit Candidates always win.
func (p *Param) AutoValues() []string {
	if len(p.Candidates) > 0 {
		return dedup(p.Candidates)
	}
	switch p.Kind {
	case Bool:
		return []string{"true", "false"}
	case Int, Ticks:
		d, err := strconv.ParseInt(p.Default, 10, 64)
		if err != nil {
			return []string{p.Default}
		}
		lo := d / 10
		if lo == d {
			lo = d - 1
		}
		hi := d * 10
		if hi == d {
			hi = d + 10
		}
		return dedup([]string{
			p.Default,
			strconv.FormatInt(hi, 10),
			strconv.FormatInt(lo, 10),
		})
	default:
		return []string{p.Default}
	}
}

func dedup(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Registry holds the parameter schema for one application, including any
// parameters inherited from shared libraries (the Hadoop Common analog).
// It is immutable after construction in normal use; Register is not safe for
// concurrent use with lookups.
type Registry struct {
	params map[string]slot
	order  []string
}

// slot is one registered parameter and its position in registration order.
type slot struct {
	p     *Param
	index int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{params: make(map[string]slot)}
}

// Register adds params to the registry. It panics on duplicate or empty
// names and on defaults that do not parse for the declared kind: a registry
// is assembled from package-level literals, so these are programming errors.
func (r *Registry) Register(params ...Param) *Registry {
	for i := range params {
		p := params[i]
		if p.Name == "" {
			panic("confkit: Register with empty parameter name")
		}
		if _, dup := r.params[p.Name]; dup {
			panic("confkit: duplicate parameter " + p.Name)
		}
		if err := checkDefault(&p); err != nil {
			panic("confkit: " + err.Error())
		}
		cp := p
		r.params[p.Name] = slot{p: &cp, index: len(r.order)}
		r.order = append(r.order, p.Name)
	}
	return r
}

func checkDefault(p *Param) error {
	switch p.Kind {
	case Bool:
		if _, err := strconv.ParseBool(p.Default); err != nil {
			return fmt.Errorf("parameter %s: bool default %q: %v", p.Name, p.Default, err)
		}
	case Int, Ticks:
		if _, err := strconv.ParseInt(p.Default, 10, 64); err != nil {
			return fmt.Errorf("parameter %s: numeric default %q: %v", p.Name, p.Default, err)
		}
	case Enum:
		if len(p.Candidates) == 0 {
			return fmt.Errorf("parameter %s: enum with no candidates", p.Name)
		}
		for _, c := range p.Candidates {
			if c == p.Default {
				return nil
			}
		}
		return fmt.Errorf("parameter %s: enum default %q not among candidates %v",
			p.Name, p.Default, p.Candidates)
	}
	return nil
}

// Include copies every parameter of other into r, skipping names already
// present. It lets an application registry layer on top of the shared
// common registry the way HBase layers on HDFS and Hadoop Common.
func (r *Registry) Include(other *Registry) *Registry {
	for _, name := range other.order {
		if _, dup := r.params[name]; dup {
			continue
		}
		r.params[name] = slot{p: other.params[name].p, index: len(r.order)}
		r.order = append(r.order, name)
	}
	return r
}

// WithDefaults returns a registry that differs from r only in the defaults
// named by overrides (param → new default; unknown names are ignored). r is
// not touched: the result gets its own copy of each Param it changes and
// shares the rest, the way Include shares them between apps.
func (r *Registry) WithDefaults(overrides map[string]string) *Registry {
	out := &Registry{params: make(map[string]slot, len(r.params)), order: slices.Clip(r.order)}
	for name, s := range r.params {
		if val, ok := overrides[name]; ok {
			cp := *s.p
			cp.Default = val
			s.p = &cp
		}
		out.params[name] = s
	}
	return out
}

// Lookup returns the parameter named name, or nil.
func (r *Registry) Lookup(name string) *Param {
	return r.params[name].p
}

// Index returns name's position in registration order (the position of
// its name in Names) and whether name is registered. A registry derived by
// WithDefaults numbers its parameters as its original does.
func (r *Registry) Index(name string) (int, bool) {
	s, ok := r.params[name]
	return s.index, ok
}

// Name returns the name at position i in registration order: Names()[i].
func (r *Registry) Name(i int) string { return r.order[i] }

// Default returns the registered default for name and whether name is
// registered.
func (r *Registry) Default(name string) (string, bool) {
	s, ok := r.params[name]
	if !ok {
		return "", false
	}
	return s.p.Default, true
}

// Names returns all parameter names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// SortedNames returns all parameter names sorted lexicographically.
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}

// Len reports the number of registered parameters.
func (r *Registry) Len() int { return len(r.order) }

// Params returns the registered parameters in registration order.
func (r *Registry) Params() []*Param {
	out := make([]*Param, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.params[name].p)
	}
	return out
}

// TruthCount reports how many registered parameters carry the given
// ground-truth label.
func (r *Registry) TruthCount(s Safety) int {
	n := 0
	for _, e := range r.params {
		if e.p.Truth == s {
			n++
		}
	}
	return n
}

// WithPrefix returns the names of parameters whose name starts with prefix,
// sorted.
func (r *Registry) WithPrefix(prefix string) []string {
	var out []string
	for _, name := range r.order {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
