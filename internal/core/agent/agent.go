// Package agent implements ConfAgent, the bottom layer of ZebraConf
// (paper §6): it runs a unit test under a given — usually heterogeneous —
// configuration by mapping every configuration object to the node (or the
// unit test itself) that owns it, and intercepting reads so that different
// nodes observe different values for the same parameter.
//
// The agent implements the paper's rule set:
//
//	Rule 1.1 — a configuration object created while a node's init function is
//	           executing on the creating goroutine belongs to that node.
//	Rule 1.2 — a configuration object created before any node has initialized
//	           belongs to the unit test.
//	Rule 2   — refToCloneConf: the object being cloned belongs to the unit
//	           test; the clone belongs to the initializing node.
//	Rule 3   — a clone (not via Rule 2) belongs to the same entity as its
//	           original.
//
// Objects that no rule can place are recorded as uncertain; parameters read
// through uncertain objects are reported so the TestGenerator can exclude
// the (unit test, parameter) combinations that would otherwise produce false
// positives (paper Observation 3).
package agent

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"zebraconf/internal/confkit"
	"zebraconf/internal/gid"
)

// UnitTestEntity is the pseudo node type that represents the unit test
// itself, which ZebraConf treats as a "client" node (paper §6.1).
const UnitTestEntity = "__unittest__"

// Strategy selects how configuration reads are mapped to entities. The
// shipped default is StrategyPaper; StrategyThreadOnly reproduces the
// paper's failed attempt #3 for the mapping-accuracy ablation.
type Strategy int

const (
	// StrategyPaper maps reads by the owner of the configuration object,
	// determined by Rules 1–3.
	StrategyPaper Strategy = iota
	// StrategyThreadOnly maps reads by the goroutine performing them: reads
	// on a goroutine inside (or spawned from) a node's init window belong
	// to that node, all others to the unit test. It misattributes reads
	// when the unit test calls node internals directly (paper §6.1).
	StrategyThreadOnly
)

// Key addresses one assigned value: the TestGenerator gives parameter Param
// the assigned value on the NodeIndex-th node of type NodeType. The unit
// test is addressed as {UnitTestEntity, 0, param}.
type Key struct {
	NodeType  string
	NodeIndex int
	Param     string
}

// Assigner answers the agent's question on every read it places: which
// value does the assignment give this key? (An executed trial's is its
// testgen.Recipe.) Goroutines of an execution may read it after the
// execution returns, so it must never change.
type Assigner interface {
	Lookup(k Key) (value string, ok bool)
}

// mapAssigner is Options.Assign as an Assigner.
type mapAssigner map[Key]string

func (m mapAssigner) Lookup(k Key) (string, bool) {
	v, ok := m[k]
	return v, ok
}

// Options configures a new Agent. An agent serves one unit-test execution:
// create one per execution, or Reuse one whose execution has ended.
type Options struct {
	// Strategy is the read-mapping strategy; zero value is StrategyPaper.
	Strategy Strategy
	// Assigner resolves the overridden values: an executed trial's agent
	// reads its recipe. Nil, with Assign nil, overrides nothing: a
	// pre-run's reads all observe the stored configuration.
	Assigner Assigner
	// Assign is an assignment held as a map, for a caller that has one;
	// it is the Assigner when Assigner is nil.
	Assign map[Key]string
	// Trial marks an execution whose caller reads the verdict, the read
	// trace and the coverage sinks but not the Report: a phase-2 trial.
	// The agent then keeps none of the report's bookkeeping (per-object
	// and per-thread read sets) and Report returns the zero value. The
	// zero value keeps the full report, for the pre-run and the dependency
	// probe, whose callers read it.
	Trial bool
	// TraceReads, when positive, records the first TraceReads intercepted
	// configuration reads in order — the forensics read trace. Zero (the
	// default) disables recording; reads beyond the cap are counted, not
	// stored, so chatty tests bound their own evidence.
	TraceReads int
	// Coverage records the deduplicated set of parameters this execution
	// read, with no cap: unlike the bounded forensic trace above, the
	// coverage sink must never drop an edge — a lost (param, test) edge
	// would silently starve that test of instances under coverage-driven
	// selection.
	Coverage bool
	// CoverageSites additionally records app-frame callsites per read
	// parameter (a stack walk per read — pre-run cost, not phase-2 cost).
	// Implies Coverage.
	CoverageSites bool
	// LastReads is a read set the caller kept from an earlier execution
	// of the same test: CoverageParams returns this very slice when the
	// execution read exactly these parameters, so a trial that reads what
	// the last one read allocates no set. The agent never writes it.
	LastReads []string
	// Identity names the calling goroutine: the key of the paper's
	// threadContext (§6.1). It must be stable for a goroutine, distinct
	// between the goroutines of one execution, and may return 0 for a
	// goroutine that is not part of it, which then never owns an init
	// window. The harness passes the execution's clock
	// (simtime.Scale.Member); nil falls back to gid.ID, a stack-trace
	// parse, for an agent driven by plain goroutines.
	Identity func() uint64
}

// ReadEvent is one intercepted configuration read, in program order: the
// entity the read was attributed to, the parameter, the value the reader
// actually observed (after any heterogeneous override), and the
// application call site. This is the forensics trail that turns "the
// heterogeneous arm failed" into "this node read this value right here".
type ReadEvent struct {
	// Entity is the owning node type, UnitTestEntity, or "uncertain" when
	// no mapping rule placed the configuration object.
	Entity string `json:"entity"`
	Index  int    `json:"index,omitempty"`
	Param  string `json:"param"`
	// Value is what the reader observed; empty with Found false means the
	// parameter was unset.
	Value string `json:"value,omitempty"`
	Found bool   `json:"found,omitempty"`
	// Overridden marks values substituted from the heterogeneous
	// assignment rather than read from the stored configuration.
	Overridden bool `json:"overridden,omitempty"`
	// Callsite is the first application stack frame (file:line) outside
	// the interception machinery.
	Callsite string `json:"callsite,omitempty"`
}

// String renders the event the way reports print it.
func (e ReadEvent) String() string {
	v := fmt.Sprintf("%q", e.Value)
	if !e.Found {
		v = "<unset>"
	}
	s := fmt.Sprintf("%s[%d] read %s = %s", e.Entity, e.Index, e.Param, v)
	if e.Overridden {
		s += " (assigned)"
	}
	if e.Callsite != "" {
		s += " at " + e.Callsite
	}
	return s
}

type ownerKind int

const (
	ownerUncertain ownerKind = iota
	ownerUnitTest
	ownerNode
)

type owner struct {
	kind   ownerKind
	nodeID uint64
}

// nodeInfo is one nodeTable entry (paper §6.3). Node IDs are the sequence
// 1…n in start order; node i is Agent.nodes[i-1].
type nodeInfo struct {
	nodeType     string
	index        int // i-th started node of nodeType
	parentConfID uint64
}

// window is one threadContext entry (paper §6.1): goroutine g is inside
// the init window of node, or inherited it.
type window struct {
	g, node uint64
}

// Agent is the ConfAgent of one execution. It implements confkit.Hooks.
// All methods are safe for concurrent use by the nodes of one unit test.
//
// Its tables are sized for one execution, which holds a handful of each
// (DESIGN.md §2): slices searched linearly, allocated at first use with
// the capacities below, and kept by Reuse for the next execution.
type Agent struct {
	strategy Strategy
	assign   Assigner
	identity func() uint64

	mu sync.Mutex
	// windows is the threadContext: the open init windows (and inherited
	// ownerships, installed by Inherit) of every goroutine, oldest first.
	// A goroutine's innermost window is its last entry.
	windows []window

	nodes []nodeInfo
	// confs is the object table, one entry per configuration-object ID.
	confs []confEntry

	// report keeps the Report's bookkeeping: the per-object read sets and,
	// under StrategyThreadOnly, threadReads (entity -> params).
	report       bool
	threadReads  map[string]map[string]bool
	confUsed     bool
	shared       bool
	refAnomalies int

	traceReads   int // cap; 0 disables the read trace
	readLog      []ReadEvent
	readsDropped int

	// coverage turns on the uncapped deduplicating coverage sink: a
	// parameter read is a bit of covBits, indexed by its position in
	// schema (the schema of the first object read), or for a name outside
	// it an entry of covOther. covSites adds per-param callsites.
	coverage bool
	schema   *confkit.Registry
	covBits  []uint64
	covOther []string
	covSites map[string]map[string]bool
	// covBuf is where CoverageParams sorts the set before it compares it
	// with lastReads; what it returns is lastReads or a copy, never covBuf.
	covBuf    []string
	lastReads []string
}

// The tables' capacities at first use. Over the mini systems' suites an
// execution holds 3.5–5.2 objects and 2.5–4.2 nodes on average per app,
// and at most 9 and 8, with at most 6 windows open (DESIGN.md §2): the
// smaller systems' executions fit, the larger ones grow a table once or
// twice.
const (
	confsCap   = 4
	nodesCap   = 4
	windowsCap = 4
)

// confEntry is one configuration object's row in the object table: its
// ID, its owner, the original it was cloned from, and — only when the
// report is kept — the parameters read through it.
type confEntry struct {
	id uint64
	// conf is the object; nil for an ID the agent knows only as an
	// ancestor or through a read, which the report does not count.
	conf *confkit.Conf
	// owner's zero value is uncertain, so an absent entry is uncertain.
	owner owner
	// parent is the ID of the object this one was cloned from; 0 (never
	// a confkit ID) for none.
	parent uint64
	reads  map[string]bool
}

// New returns a fresh agent. Install it on the unit test's runtime with
// rt.SetHooks before any node starts.
func New(opts Options) *Agent { return Reuse(new(Agent), opts) }

// Reuse resets a to the agent New(opts) returns, keeping its tables'
// capacity, and returns a. a's execution must have ended: nothing calls it
// any more. What was read from it keeps: every accessor copies out.
func Reuse(a *Agent, opts Options) *Agent {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.strategy, a.assign, a.identity = opts.Strategy, opts.Assigner, opts.Identity
	if a.assign == nil && opts.Assign != nil {
		a.assign = mapAssigner(opts.Assign)
	}
	if a.identity == nil {
		a.identity = fallbackIdentity
	}
	clear(a.confs) // an entry holds its object and read set
	clear(a.readLog)
	a.windows, a.nodes, a.confs = a.windows[:0], a.nodes[:0], a.confs[:0]
	a.report, a.threadReads = !opts.Trial, nil
	a.confUsed, a.shared, a.refAnomalies = false, false, 0
	a.traceReads, a.readLog, a.readsDropped = opts.TraceReads, a.readLog[:0], 0
	a.coverage, a.schema = opts.Coverage || opts.CoverageSites, nil
	a.covBits, a.covOther, a.covSites = a.covBits[:0], a.covOther[:0], nil
	clear(a.covBuf)
	a.covBuf, a.lastReads = a.covBuf[:0], opts.LastReads
	if a.report && a.strategy == StrategyThreadOnly {
		a.threadReads = make(map[string]map[string]bool)
	}
	if opts.CoverageSites {
		a.covSites = make(map[string]map[string]bool)
	}
	return a
}

// fallbackIdentity is the identity source of an agent built without one. A
// variable so that a test can count the calls and show an execution under
// the harness makes none.
var fallbackIdentity = gid.ID

// StartInit implements confkit.Hooks: it registers a new node of nodeType in
// the node table and opens an init window on the calling goroutine.
func (a *Agent) StartInit(nodeType string) {
	g := a.identity()
	a.mu.Lock()
	defer a.mu.Unlock()
	index := 0
	for i := range a.nodes {
		if a.nodes[i].nodeType == nodeType {
			index++
		}
	}
	if a.nodes == nil {
		a.nodes = make([]nodeInfo, 0, nodesCap)
	}
	a.nodes = append(a.nodes, nodeInfo{nodeType: nodeType, index: index})
	if g != 0 { // no goroutine of the execution, no window: they would all share it
		a.openLocked(g, uint64(len(a.nodes)))
	}
}

// StopInit closes the innermost init window on the calling goroutine.
func (a *Agent) StopInit() {
	g := a.identity()
	a.mu.Lock()
	defer a.mu.Unlock()
	if i := a.innermostLocked(g); i >= 0 {
		a.windows = slices.Delete(a.windows, i, i+1)
	}
}

// Inherit wraps fn so that the goroutine it runs on inherits the caller's
// current node ownership for fn's whole lifetime. This extends the paper's
// init-window rule to worker goroutines started during initialization
// (heartbeat loops, RPC handlers), which otherwise would create unmappable
// objects. Starting the goroutine is the runtime's business.
func (a *Agent) Inherit(fn func()) func() {
	g := a.identity()
	a.mu.Lock()
	inherit := a.currentNodeLocked(g)
	a.mu.Unlock()
	if inherit == 0 {
		return fn
	}
	return func() {
		cg := a.identity()
		if cg == 0 { // as in StartInit: a window for no goroutine would be everyone's
			fn()
			return
		}
		a.mu.Lock()
		a.openLocked(cg, inherit)
		a.mu.Unlock()
		defer func() {
			a.mu.Lock()
			a.windows = slices.DeleteFunc(a.windows, func(w window) bool { return w.g == cg })
			a.mu.Unlock()
		}()
		fn()
	}
}

// openLocked opens goroutine g's window on node: its innermost from now.
func (a *Agent) openLocked(g, node uint64) {
	if a.windows == nil {
		a.windows = make([]window, 0, windowsCap)
	}
	a.windows = append(a.windows, window{g: g, node: node})
}

// innermostLocked returns the position of goroutine g's innermost window
// in a.windows, or -1.
func (a *Agent) innermostLocked(g uint64) int {
	for i := len(a.windows) - 1; i >= 0; i-- {
		if a.windows[i].g == g {
			return i
		}
	}
	return -1
}

// currentNodeLocked returns the ID of the node whose init window (or
// inherited ownership) covers goroutine g, or 0.
func (a *Agent) currentNodeLocked(g uint64) uint64 {
	if i := a.innermostLocked(g); i >= 0 {
		return a.windows[i].node
	}
	return 0
}

// node returns the node table entry of node id.
func (a *Agent) node(id uint64) *nodeInfo { return &a.nodes[id-1] }

// findLocked returns the position of object id's entry in the object
// table, or -1.
func (a *Agent) findLocked(id uint64) int {
	for i := range a.confs {
		if a.confs[i].id == id {
			return i
		}
	}
	return -1
}

// entryLocked returns object id's entry, adding an empty (uncertain) one
// if the table has none. The pointer is good until the next entry is
// added.
func (a *Agent) entryLocked(id uint64) *confEntry {
	if i := a.findLocked(id); i >= 0 {
		return &a.confs[i]
	}
	if a.confs == nil {
		a.confs = make([]confEntry, 0, confsCap)
	}
	a.confs = append(a.confs, confEntry{id: id})
	return &a.confs[len(a.confs)-1]
}

// ownerLocked returns object id's owner: uncertain when the table has no
// entry for it.
func (a *Agent) ownerLocked(id uint64) owner {
	if i := a.findLocked(id); i >= 0 {
		return a.confs[i].owner
	}
	return owner{}
}

// NewConf implements Rules 1.1 and 1.2 for the blank constructor.
func (a *Agent) NewConf(c *confkit.Conf) {
	g := a.identity()
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entryLocked(c.ID())
	e.conf = c
	switch id := a.currentNodeLocked(g); {
	case id != 0:
		e.owner = owner{kind: ownerNode, nodeID: id} // Rule 1.1
	case len(a.nodes) == 0:
		e.owner = owner{kind: ownerUnitTest} // Rule 1.2
	default:
		e.owner = owner{kind: ownerUncertain}
	}
}

// CloneConf implements Rule 3 for the clone constructor: the clone joins the
// original's group; if neither is mapped, both stay uncertain.
func (a *Agent) CloneConf(orig, clone *confkit.Conf) {
	a.mu.Lock()
	defer a.mu.Unlock()
	o := a.ownerLocked(orig.ID())
	e := a.entryLocked(clone.ID())
	e.conf, e.parent = clone, orig.ID()
	if o.kind != ownerUncertain {
		e.owner = o
	} else if o = e.owner; o.kind != ownerUncertain {
		a.entryLocked(orig.ID()).owner = o
	}
}

// RefToClone implements Rule 2: called from a node's init function in place
// of storing a shared configuration reference, it returns a clone owned by
// the initializing node, marks the original as the unit test's, and records
// the parent link used for write-back by InterceptSet.
func (a *Agent) RefToClone(orig *confkit.Conf) *confkit.Conf {
	g := a.identity()
	clone := orig.CloneForAgent()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.entryLocked(orig.ID()).conf = orig
	ce := a.entryLocked(clone.ID())
	ce.conf = clone
	id := a.currentNodeLocked(g)
	if id == 0 {
		// Misuse: refToCloneConf outside an init window. Keep the original
		// reference and count the anomaly; the object mapping is unchanged.
		a.refAnomalies++
		return orig
	}
	ce.owner, ce.parent = owner{kind: ownerNode, nodeID: id}, orig.ID()
	a.node(id).parentConfID = orig.ID()
	// Rule 2: the shared original belongs to the unit test...
	oe := a.entryLocked(orig.ID())
	if oe.owner.kind == ownerUncertain {
		oe.owner = owner{kind: ownerUnitTest}
	}
	if oe.owner.kind == ownerUnitTest {
		a.shared = true // a unit-test object was handed to a node: sharing observed
	}
	// ...and so do its uncertain ancestors (Rule 3 walk).
	for id := oe.parent; id != 0; {
		pe := a.entryLocked(id)
		if pe.owner.kind == ownerUncertain {
			pe.owner = owner{kind: ownerUnitTest}
		}
		id = pe.parent
	}
	return clone
}

// InterceptGet records the read in the sinks this execution keeps (the
// report, coverage, the read trace) and, when the TestGenerator assigned a
// value to <owner entity, parameter>, overrides the result.
func (a *Agent) InterceptGet(c *confkit.Conf, name, stored string, found bool) (string, bool) {
	// Only attempt #3 attributes a read by the goroutine doing it; Rules
	// 1–3 go by the object and never ask who is calling.
	var g uint64
	if a.strategy == StrategyThreadOnly {
		g = a.identity()
	}
	// Callsite capture walks the stack only when the read trace or the
	// coverage callsite sink is on; the default path pays nothing.
	var callsite string
	if a.traceReads > 0 || a.covSites != nil {
		callsite = appCallsite()
	}
	a.mu.Lock()
	a.confUsed = true
	if a.covSites != nil && callsite != "" {
		set := a.covSites[name]
		if set == nil {
			set = make(map[string]bool)
			a.covSites[name] = set
		}
		set[callsite] = true
	}
	var o owner
	newRead := true // no earlier read of name through c is on record
	if a.report {
		e := a.entryLocked(c.ID())
		if newRead = !e.reads[name]; newRead {
			if e.reads == nil {
				e.reads = make(map[string]bool)
			}
			e.reads[name] = true
		}
		o = e.owner
	} else {
		o = a.ownerLocked(c.ID())
	}
	if a.coverage && newRead {
		a.coverLocked(c, name)
	}

	var key Key
	haveKey := false
	switch a.strategy {
	case StrategyThreadOnly:
		// Attempt #3: attribute the read to the goroutine doing it.
		entity := UnitTestEntity
		index := 0
		if id := a.currentNodeLocked(g); id != 0 {
			n := a.node(id)
			entity, index = n.nodeType, n.index
		}
		if a.report {
			er := a.threadReads[entity]
			if er == nil {
				er = make(map[string]bool)
				a.threadReads[entity] = er
			}
			er[name] = true
		}
		key = Key{NodeType: entity, NodeIndex: index, Param: name}
		haveKey = true
	default:
		switch o.kind {
		case ownerNode:
			n := a.node(o.nodeID)
			key = Key{NodeType: n.nodeType, NodeIndex: n.index, Param: name}
			haveKey = true
		case ownerUnitTest:
			key = Key{NodeType: UnitTestEntity, NodeIndex: 0, Param: name}
			haveKey = true
		}
	}
	// Resolve the override while still holding the lock (assign is
	// immutable) so the read-trace event records the value the reader
	// actually observed, in program order.
	value, ok, overridden := stored, found, false
	if haveKey && a.assign != nil {
		if v, has := a.assign.Lookup(key); has {
			value, ok, overridden = v, true, true
		}
	}
	if a.traceReads > 0 {
		if len(a.readLog) < a.traceReads {
			ev := ReadEvent{
				Entity: "uncertain", Param: name,
				Value: value, Found: ok, Overridden: overridden,
				Callsite: callsite,
			}
			if haveKey {
				ev.Entity, ev.Index = key.NodeType, key.NodeIndex
			}
			a.readLog = append(a.readLog, ev)
		} else {
			a.readsDropped++
		}
	}
	a.mu.Unlock()
	return value, ok
}

// ReadTrace returns the recorded read events (in interception order) and
// how many more were dropped once the cap filled. Empty unless
// Options.TraceReads was positive.
func (a *Agent) ReadTrace() ([]ReadEvent, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ReadEvent, len(a.readLog))
	copy(out, a.readLog)
	return out, a.readsDropped
}

// coverLocked adds name, read through c, to the coverage set.
func (a *Agent) coverLocked(c *confkit.Conf, name string) {
	schema := c.Runtime().Schema()
	if a.schema == nil {
		a.schema = schema
		n := (schema.Len() + 63) / 64
		a.covBits = slices.Grow(a.covBits[:0], n)[:n]
		clear(a.covBits)
	}
	if i, ok := schema.Index(name); ok && schema == a.schema && i/64 < len(a.covBits) {
		a.covBits[i/64] |= 1 << (i % 64)
	} else if !slices.Contains(a.covOther, name) {
		a.covOther = append(a.covOther, name)
	}
}

// CoverageParams returns the sorted, deduplicated set of parameters
// this execution read: Options.LastReads itself when the set equals it,
// a fresh slice otherwise, and a non-nil empty one for no read. Nil
// unless Options.Coverage (or CoverageSites) was set. Unlike ReadTrace,
// this sink has no cap: every distinct parameter is present no matter how
// chatty the test. The set may be shared with other executions' outcomes,
// so its readers must not write it.
func (a *Agent) CoverageParams() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.coverage {
		return nil
	}
	buf := a.covBuf[:0]
	for i, w := range a.covBits {
		for ; w != 0; w &= w - 1 {
			buf = append(buf, a.schema.Name(i*64+bits.TrailingZeros64(w)))
		}
	}
	// A name read through an object of another registry sits in covOther,
	// and may have a bit too.
	buf = append(buf, a.covOther...)
	slices.Sort(buf)
	buf = slices.Compact(buf)
	a.covBuf = buf
	if a.lastReads != nil && slices.Equal(buf, a.lastReads) {
		return a.lastReads
	}
	if len(buf) == 0 {
		return []string{}
	}
	return slices.Clone(buf)
}

// CoverageSites returns the param → sorted app callsites map recorded
// when Options.CoverageSites was set; nil otherwise.
func (a *Agent) CoverageSites() map[string][]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.covSites) == 0 {
		return nil
	}
	out := make(map[string][]string, len(a.covSites))
	for p, set := range a.covSites {
		ss := make([]string, 0, len(set))
		for s := range set {
			ss = append(ss, s)
		}
		sort.Strings(ss)
		out[p] = ss
	}
	return out
}

// appCallsite reports the first stack frame outside the configuration
// interception machinery (confkit getters and this package), as
// file:line with the file trimmed to its last two path segments.
//
// A callsite is a function of the return addresses on the stack, and a
// program has only so many of them leading to a configuration read: the
// stack is walked on every call, but each address is symbolized once per
// process (callsites) instead of once per read. That leaves the walk as
// the cost, and it is paid per frame: the application's frame is two or
// three addresses up (Conf.lookup and a typed getter or two come first),
// so a short walk is tried before the full one. Both settle on the first
// address outside the machinery, so they cannot disagree.
func appCallsite() string {
	var pcs [12]uintptr
	for _, depth := range [...]int{4, len(pcs)} {
		// Skip runtime.Callers, appCallsite, and InterceptGet itself.
		n := runtime.Callers(3, pcs[:depth])
		for _, pc := range pcs[:n] {
			v, ok := callsites.Load(pc)
			if !ok {
				v, _ = callsites.LoadOrStore(pc, resolveCallsite(pc))
			}
			if c := v.(pcCallsite); !c.inside {
				return c.site
			}
		}
		if n < depth {
			break // the whole stack is interception machinery
		}
	}
	return ""
}

// callsites caches resolveCallsite by return address (uintptr → pcCallsite).
var callsites sync.Map

// pcCallsite is what one return address says about a read's callsite:
// still inside the interception machinery (look at the next address), or
// the walk ends here at site ("" when the address has no function).
type pcCallsite struct {
	site   string
	inside bool
}

// resolveCallsite symbolizes one address as runtime.Callers returned it.
// Callers reports an inlined call as an address of its own and
// CallersFrames expands an address into the frames it stands for, so an
// inlined getter resolves like any other.
func resolveCallsite(pc uintptr) pcCallsite {
	frames := runtime.CallersFrames([]uintptr{pc})
	for {
		f, more := frames.Next()
		if f.Function == "" {
			return pcCallsite{}
		}
		if !strings.Contains(f.Function, "/confkit.") && !strings.Contains(f.Function, "/agent.") {
			file := f.File
			if i := strings.LastIndex(file, "/"); i >= 0 {
				if j := strings.LastIndex(file[:i], "/"); j >= 0 {
					file = file[j+1:]
				}
			}
			return pcCallsite{site: fmt.Sprintf("%s:%d", file, f.Line)}
		}
		if !more {
			return pcCallsite{inside: true}
		}
	}
}

// InterceptSet propagates a node's write back to the parent object the node
// was initialized from (paper §6.3): unit tests that pass an empty
// configuration to a node and read values the node filled in would otherwise
// observe the stale original, because RefToClone replaced the reference.
func (a *Agent) InterceptSet(c *confkit.Conf, name, value string) {
	a.mu.Lock()
	a.confUsed = true
	var parent *confkit.Conf
	if o := a.ownerLocked(c.ID()); o.kind == ownerNode {
		if pid := a.node(o.nodeID).parentConfID; pid != 0 {
			if i := a.findLocked(pid); i >= 0 {
				parent = a.confs[i].conf
			}
		}
	}
	a.mu.Unlock()
	if parent != nil && parent.ID() != c.ID() {
		parent.SetRaw(name, value)
	}
}
