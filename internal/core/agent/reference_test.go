package agent

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"zebraconf/internal/confkit"
)

// refAgent is the reference bookkeeping: a map per field, every read
// recorded per object whatever the caller reads, and the report built from
// those maps. The agent's object table and its trial mode must be
// indistinguishable from it through Report, CoverageParams, ReadTrace and
// the values reads observe.
type refAgent struct {
	strategy Strategy
	assign   map[Key]string
	identity func() uint64

	threadCtx  map[uint64][]uint64
	nodes      map[uint64]*refNode
	nodeSeq    uint64
	typeCounts map[string]int

	confOwner map[uint64]owner
	confObjs  map[uint64]*confkit.Conf
	parentOf  map[uint64]uint64 // clone conf ID -> original conf ID

	readsByConf  map[uint64]map[string]bool
	threadReads  map[string]map[string]bool
	covParams    map[string]bool
	readLog      []ReadEvent
	confUsed     bool
	shared       bool
	refAnomalies int

	// What the scripts reached, so the property test can require that its
	// random scripts cover each of these paths.
	hits refHits
}

type refHits struct {
	ancestorWalks    int // Rule 2 walked past an uncertain ancestor
	uncertainClones  int // Rule 3 on an object with no certain owner
	unseenReads      int // a read through an object the agent never saw created
	misuses          int // RefToClone outside an init window
	inheritedZero    int // an inheriting wrapper run by identity 0
	nestedWindows    int // StartInit on a goroutine with a window open
	inheritOnWindows int // an inheriting wrapper run by a goroutine with a window open
	outsideReads     int // a read of a name the schema does not register

	// The largest tables one script built: the agent sizes its own for far
	// fewer, so a script past these grows every one of them.
	maxConfs, maxNodes, maxParams int
}

// add folds the hits of one script into h.
func (h *refHits) add(o refHits) {
	h.ancestorWalks += o.ancestorWalks
	h.uncertainClones += o.uncertainClones
	h.unseenReads += o.unseenReads
	h.misuses += o.misuses
	h.inheritedZero += o.inheritedZero
	h.nestedWindows += o.nestedWindows
	h.inheritOnWindows += o.inheritOnWindows
	h.outsideReads += o.outsideReads
	h.maxConfs = max(h.maxConfs, o.maxConfs)
	h.maxNodes = max(h.maxNodes, o.maxNodes)
	h.maxParams = max(h.maxParams, o.maxParams)
}

type refNode struct {
	id       uint64
	nodeType string
	index    int
}

func newRefAgent(opts Options) *refAgent {
	return &refAgent{
		strategy:    opts.Strategy,
		assign:      opts.Assign,
		identity:    opts.Identity,
		threadCtx:   make(map[uint64][]uint64),
		nodes:       make(map[uint64]*refNode),
		typeCounts:  make(map[string]int),
		confOwner:   make(map[uint64]owner),
		confObjs:    make(map[uint64]*confkit.Conf),
		parentOf:    make(map[uint64]uint64),
		readsByConf: make(map[uint64]map[string]bool),
		threadReads: make(map[string]map[string]bool),
		covParams:   make(map[string]bool),
	}
}

func (a *refAgent) startInit(nodeType string) {
	g := a.identity()
	a.nodeSeq++
	n := &refNode{id: a.nodeSeq, nodeType: nodeType, index: a.typeCounts[nodeType]}
	a.typeCounts[nodeType]++
	a.nodes[n.id] = n
	a.hits.maxNodes = max(a.hits.maxNodes, len(a.nodes))
	if g != 0 {
		if len(a.threadCtx[g]) > 0 {
			a.hits.nestedWindows++
		}
		a.threadCtx[g] = append(a.threadCtx[g], n.id)
	}
}

func (a *refAgent) stopInit() {
	g := a.identity()
	stack := a.threadCtx[g]
	if len(stack) == 0 {
		return
	}
	if stack = stack[:len(stack)-1]; len(stack) == 0 {
		delete(a.threadCtx, g)
	} else {
		a.threadCtx[g] = stack
	}
}

func (a *refAgent) inherit(fn func()) func() {
	var inherit uint64
	if stack := a.threadCtx[a.identity()]; len(stack) > 0 {
		inherit = stack[len(stack)-1]
	}
	if inherit == 0 {
		return fn
	}
	return func() {
		cg := a.identity()
		if cg == 0 {
			a.hits.inheritedZero++
			fn()
			return
		}
		if len(a.threadCtx[cg]) > 0 {
			a.hits.inheritOnWindows++
		}
		a.threadCtx[cg] = append(a.threadCtx[cg], inherit)
		defer delete(a.threadCtx, cg)
		fn()
	}
}

func (a *refAgent) currentNode() *refNode {
	stack := a.threadCtx[a.identity()]
	if len(stack) == 0 {
		return nil
	}
	return a.nodes[stack[len(stack)-1]]
}

func (a *refAgent) newConf(c *confkit.Conf) {
	a.confObjs[c.ID()] = c
	if n := a.currentNode(); n != nil {
		a.confOwner[c.ID()] = owner{kind: ownerNode, nodeID: n.id}
		return
	}
	if len(a.nodes) == 0 {
		a.confOwner[c.ID()] = owner{kind: ownerUnitTest}
		return
	}
	a.confOwner[c.ID()] = owner{kind: ownerUncertain}
}

func (a *refAgent) cloneConf(orig, clone *confkit.Conf) {
	a.confObjs[clone.ID()] = clone
	a.parentOf[clone.ID()] = orig.ID()
	if o, ok := a.confOwner[orig.ID()]; ok && o.kind != ownerUncertain {
		a.confOwner[clone.ID()] = o
		return
	}
	if o, ok := a.confOwner[clone.ID()]; ok && o.kind != ownerUncertain {
		a.confOwner[orig.ID()] = o
		return
	}
	a.hits.uncertainClones++
	a.confOwner[orig.ID()] = owner{kind: ownerUncertain}
	a.confOwner[clone.ID()] = owner{kind: ownerUncertain}
}

// refToClone mirrors RefToClone(orig) given the clone it made; on misuse,
// clone is a fresh object standing in for the one the agent discarded.
func (a *refAgent) refToClone(orig, clone *confkit.Conf) {
	a.confObjs[orig.ID()] = orig
	a.confObjs[clone.ID()] = clone
	n := a.currentNode()
	if n == nil {
		a.hits.misuses++
		a.refAnomalies++
		return
	}
	a.confOwner[clone.ID()] = owner{kind: ownerNode, nodeID: n.id}
	a.parentOf[clone.ID()] = orig.ID()
	if prev, ok := a.confOwner[orig.ID()]; !ok || prev.kind == ownerUncertain {
		a.confOwner[orig.ID()] = owner{kind: ownerUnitTest}
	}
	if a.confOwner[orig.ID()].kind == ownerUnitTest {
		a.shared = true
	}
	for id := orig.ID(); ; {
		parent, ok := a.parentOf[id]
		if !ok {
			break
		}
		if o, ok := a.confOwner[parent]; !ok || o.kind == ownerUncertain {
			a.hits.ancestorWalks++
			a.confOwner[parent] = owner{kind: ownerUnitTest}
		}
		id = parent
	}
}

func (a *refAgent) interceptGet(c *confkit.Conf, name, stored string, found bool) (string, bool) {
	a.confUsed = true
	a.covParams[name] = true
	a.hits.maxParams = max(a.hits.maxParams, len(a.covParams))
	a.hits.maxConfs = max(a.hits.maxConfs, len(a.confObjs))
	if _, seen := a.confObjs[c.ID()]; !seen {
		a.hits.unseenReads++
	}
	if c.Runtime().Schema().Lookup(name) == nil {
		a.hits.outsideReads++
	}
	reads := a.readsByConf[c.ID()]
	if reads == nil {
		reads = make(map[string]bool)
		a.readsByConf[c.ID()] = reads
	}
	reads[name] = true

	var key Key
	haveKey := false
	switch a.strategy {
	case StrategyThreadOnly:
		entity, index := UnitTestEntity, 0
		if n := a.currentNode(); n != nil {
			entity, index = n.nodeType, n.index
		}
		er := a.threadReads[entity]
		if er == nil {
			er = make(map[string]bool)
			a.threadReads[entity] = er
		}
		er[name] = true
		key, haveKey = Key{NodeType: entity, NodeIndex: index, Param: name}, true
	default:
		switch o := a.confOwner[c.ID()]; o.kind {
		case ownerNode:
			if n := a.nodes[o.nodeID]; n != nil {
				key, haveKey = Key{NodeType: n.nodeType, NodeIndex: n.index, Param: name}, true
			}
		case ownerUnitTest:
			key, haveKey = Key{NodeType: UnitTestEntity, Param: name}, true
		}
	}
	value, ok, overridden := stored, found, false
	if haveKey && a.assign != nil {
		if v, has := a.assign[key]; has {
			value, ok, overridden = v, true, true
		}
	}
	ev := ReadEvent{Entity: "uncertain", Param: name, Value: value, Found: ok, Overridden: overridden}
	if haveKey {
		ev.Entity, ev.Index = key.NodeType, key.NodeIndex
	}
	a.readLog = append(a.readLog, ev)
	return value, ok
}

func (a *refAgent) report() Report {
	r := Report{
		NodesStarted: make(map[string]int, len(a.typeCounts)),
		Usage:        make(map[string]map[string]bool),
		SharedConf:   a.shared,
		UsedConf:     a.confUsed,
		RefAnomalies: a.refAnomalies,
		TotalConfs:   len(a.confObjs),
	}
	for t, n := range a.typeCounts {
		r.NodesStarted[t] = n
	}
	addUse := func(entity, param string) {
		set := r.Usage[entity]
		if set == nil {
			set = make(map[string]bool)
			r.Usage[entity] = set
		}
		set[param] = true
	}
	if a.strategy == StrategyThreadOnly {
		for entity, params := range a.threadReads {
			for p := range params {
				addUse(entity, p)
			}
		}
	}
	uncertain := make(map[string]bool)
	for confID, params := range a.readsByConf {
		o := a.confOwner[confID]
		switch o.kind {
		case ownerNode:
			if n := a.nodes[o.nodeID]; n != nil && a.strategy == StrategyPaper {
				for p := range params {
					addUse(n.nodeType, p)
				}
			}
		case ownerUnitTest:
			if a.strategy == StrategyPaper {
				for p := range params {
					addUse(UnitTestEntity, p)
				}
			}
		default:
			for p := range params {
				uncertain[p] = true
			}
		}
	}
	for id := range a.confObjs {
		if o := a.confOwner[id]; o.kind == ownerUncertain {
			r.UncertainConfs++
		}
	}
	r.UncertainParams = sortedKeys(uncertain)
	return r
}

// tee is the hooks of one scripted execution: every hook goes to the agent
// under test and to the reference, and a read fails the script when the
// two disagree on the value it observes.
type tee struct {
	ag       *Agent
	ref      *refAgent
	mismatch bool
}

func (t *tee) StartInit(nodeType string) { t.ag.StartInit(nodeType); t.ref.startInit(nodeType) }
func (t *tee) StopInit()                 { t.ag.StopInit(); t.ref.stopInit() }
func (t *tee) Inherit(fn func()) func()  { return t.ag.Inherit(t.ref.inherit(fn)) }
func (t *tee) NewConf(c *confkit.Conf)   { t.ag.NewConf(c); t.ref.newConf(c) }
func (t *tee) CloneConf(orig, clone *confkit.Conf) {
	t.ag.CloneConf(orig, clone)
	t.ref.cloneConf(orig, clone)
}

func (t *tee) RefToClone(orig *confkit.Conf) *confkit.Conf {
	got := t.ag.RefToClone(orig)
	clone := got
	if got == orig {
		clone = orig.CloneForAgent()
	}
	t.ref.refToClone(orig, clone)
	return got
}

func (t *tee) InterceptGet(c *confkit.Conf, name, stored string, found bool) (string, bool) {
	v, ok := t.ag.InterceptGet(c, name, stored, found)
	rv, rok := t.ref.interceptGet(c, name, stored, found)
	if v != rv || ok != rok {
		t.mismatch = true
	}
	return v, ok
}

func (t *tee) InterceptSet(c *confkit.Conf, name, value string) { t.ag.InterceptSet(c, name, value) }

// scriptParams is what a script reads: more registered parameters than a
// word of the agent's coverage bitset holds, then a name the schema does
// not register.
var scriptParams = func() []string {
	params := []string{"p", "q", "r"}
	for i := len(params); i < 80; i++ {
		params = append(params, fmt.Sprintf("x%02d", i))
	}
	return append(params, "unregistered")
}()

// runScript plays script against a fresh agent built from opts, teed with
// the reference, and reports how the two ended. An op's low three bits
// choose the hook, its higher bits the hook's arguments.
func runScript(script []uint32, opts Options) *tee {
	r := confkit.NewRegistry()
	for _, p := range scriptParams[:len(scriptParams)-1] {
		r.Register(confkit.Param{Name: p, Kind: confkit.String, Default: "d"})
	}
	rt := confkit.NewRuntime(r)
	// Objects the agent never sees created: made before it is installed.
	objs := []*confkit.Conf{rt.NewConf(), rt.NewConf()}

	var cur uint64 = 1
	opts.Identity = func() uint64 { return cur }
	opts.Assign = map[Key]string{
		{NodeType: UnitTestEntity, Param: "p"}: "T",
		{NodeType: UnitTestEntity, Param: "q"}: "Tq",
	}
	for i := 0; i < 4; i++ {
		for _, nt := range []string{"A", "B"} {
			opts.Assign[Key{NodeType: nt, NodeIndex: i, Param: "p"}] = nt + string(rune('0'+i))
		}
	}
	t := &tee{ag: New(opts), ref: newRefAgent(opts)}
	rt.SetHooks(t)

	for _, op := range script {
		arg := op >> 3
		pick := func() *confkit.Conf { return objs[int(arg%256)%len(objs)] }
		switch op % 8 {
		case 0: // switch goroutine: 0 is one outside the execution
			cur = uint64(arg % 4)
		case 1:
			rt.StartInit([]string{"A", "B"}[arg%2])
		case 2:
			rt.StopInit()
		case 3:
			objs = append(objs, rt.NewConf())
		case 4:
			objs = append(objs, pick().Clone())
		case 5:
			objs = append(objs, pick().RefToClone())
		case 6: // a run of up to sixteen parameters, as an init function reads them
			c, first := pick(), int(arg>>8)
			for i := range 1 + int(arg>>16)%16 {
				c.Get(scriptParams[(first+i)%len(scriptParams)])
			}
		case 7: // a goroutine spawned here, run on identity 0, a fresh one or a scripted one
			src := pick()
			spawned := t.Inherit(func() {
				c := rt.NewConf()
				objs = append(objs, c)
				c.Get("p")
				if arg&(1<<8) != 0 { // a node started from the spawned goroutine
					rt.StartInit("B")
					objs = append(objs, rt.NewConf())
					rt.StopInit()
				}
				src.Get("q")
			})
			prev := cur
			cur = []uint64{0, 9, 1, 2}[arg%4]
			spawned()
			cur = prev
		}
	}
	return t
}

// scriptValues makes quick's scripts: up to 200 ops, so that the longer
// ones outgrow every table the agent sizes for one execution.
func scriptValues(args []reflect.Value, rng *rand.Rand) {
	script := make([]uint32, rng.Intn(200))
	for i := range script {
		script[i] = rng.Uint32()
	}
	args[0] = reflect.ValueOf(script)
}

// readTrace is the agent's read trace without callsites, which the
// reference does not resolve.
func readTrace(ag *Agent) []ReadEvent {
	evs, _ := ag.ReadTrace()
	for i := range evs {
		evs[i].Callsite = ""
	}
	return evs
}

// TestObjectTableMatchesReference runs random scripts of node starts, init
// windows, constructions, clones, Rule 2 references, reads and spawned
// goroutines — on several identities, 0 among them — under both strategies,
// with the report kept and in trial mode. With the report kept, Report is
// the reference's field for field; in trial mode it is zero. Either way the
// values reads observe, the coverage set and the read trace are the
// reference's.
func TestObjectTableMatchesReference(t *testing.T) {
	t.Parallel()
	var hits refHits
	for _, strategy := range []Strategy{StrategyPaper, StrategyThreadOnly} {
		for _, trial := range []bool{false, true} {
			fn := func(script []uint32) bool {
				opts := Options{Strategy: strategy, Trial: trial, Coverage: true, TraceReads: 1 << 20}
				tt := runScript(script, opts)
				ref := tt.ref
				hits.add(ref.hits)
				if tt.mismatch {
					t.Logf("a read observed a value other than the reference's (strategy %d, trial %v)", strategy, trial)
					return false
				}
				want := ref.report()
				if trial {
					want = Report{}
				}
				if got := tt.ag.Report(); !reflect.DeepEqual(got, want) {
					t.Logf("strategy %d, trial %v:\n report %+v\n want   %+v", strategy, trial, got, want)
					return false
				}
				if got, want := tt.ag.CoverageParams(), sortedKeys(ref.covParams); !slices.Equal(got, want) {
					t.Logf("coverage %v, want %v", got, want)
					return false
				}
				if got := readTrace(tt.ag); !slices.Equal(got, ref.readLog) {
					t.Logf("read trace %v, want %v", got, ref.readLog)
					return false
				}
				return true
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 300, Values: scriptValues}); err != nil {
				t.Fatalf("strategy %d, trial %v: %v", strategy, trial, err)
			}
		}
	}
	if hits.ancestorWalks == 0 || hits.uncertainClones == 0 || hits.unseenReads == 0 || hits.misuses == 0 || hits.inheritedZero == 0 ||
		hits.nestedWindows == 0 || hits.inheritOnWindows == 0 || hits.outsideReads == 0 {
		t.Fatalf("the scripts missed a path: %+v", hits)
	}
	// Past every capacity the agent allocates a table at (confsCap,
	// nodesCap), and into a second word of its coverage bitset, which
	// CoverageParams reads its names from.
	if hits.maxConfs < 10 || hits.maxNodes < 9 || hits.maxParams < 70 {
		t.Fatalf("no script outgrew the agent's tables: %+v", hits)
	}
	t.Logf("paths reached: %+v", hits)
}
