package confkit

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Hooks is the ConfAgent intercept surface (paper §6.3). Every method
// corresponds to one ConfAgent API call placed in the configuration class or
// in node init functions. A nil Hooks means "ZebraConf not attached" and all
// operations pass through.
type Hooks interface {
	// NewConf observes the blank constructor (paper Fig. 2a line 3).
	NewConf(c *Conf)
	// CloneConf observes the clone constructor (Fig. 2a line 9).
	CloneConf(orig, clone *Conf)
	// RefToClone implements refToCloneConf (Fig. 2b line 17): it may return
	// a clone of orig that belongs to the initializing node, or orig itself.
	RefToClone(orig *Conf) *Conf
	// InterceptGet may override the value read for name (Fig. 2a line 17).
	// stored/found describe what the Conf would return on its own.
	InterceptGet(c *Conf, name, stored string, found bool) (value string, ok bool)
	// InterceptSet observes writes (Fig. 2a line 22), e.g. to propagate a
	// node's write back to the unit test's parent object.
	InterceptSet(c *Conf, name, value string)
	// StartInit marks the start of a node's initialization function on the
	// calling goroutine (Fig. 2b line 14).
	StartInit(nodeType string)
	// StopInit marks the end of the initialization function (Fig. 2b
	// line 21).
	StopInit()
	// Inherit returns fn wrapped so that the goroutine it later runs on
	// belongs to the node that owns the calling goroutine now: worker
	// goroutines started during init keep belonging to their node.
	Inherit(fn func()) func()
}

// Runtime ties configuration objects to one test environment: a schema for
// defaults and, optionally, an installed Hooks (the ConfAgent). In the Java
// original these are process-wide statics; making them explicit lets the
// campaign scheduler run many unit tests concurrently in one process.
type Runtime struct {
	schema *Registry
	hooks  atomic.Pointer[hooksBox]
	spawn  func(func()) // how Go starts a goroutine; nil means a bare go statement
}

// hooksBox wraps the interface so it can live in an atomic.Pointer.
type hooksBox struct{ h Hooks }

// NewRuntime returns a runtime over schema. A nil schema is treated as an
// empty registry (no defaults).
func NewRuntime(schema *Registry) *Runtime {
	rt := new(Runtime)
	rt.Reset(schema)
	return rt
}

// Reset makes rt a runtime over schema for the next execution of an
// environment whose last one has ended; its spawner and agent stay. It
// must be called before the runtime is shared between goroutines.
func (rt *Runtime) Reset(schema *Registry) {
	if schema == nil {
		schema = NewRegistry()
	}
	rt.schema = schema
}

// SetSpawner makes Go start its goroutines through spawn, so that they join
// the environment's clock census (simtime.Scale.Go). It must be called
// before the runtime is shared between goroutines.
func (rt *Runtime) SetSpawner(spawn func(func())) { rt.spawn = spawn }

// Schema returns the runtime's parameter registry.
func (rt *Runtime) Schema() *Registry { return rt.schema }

// SetHooks installs (or, with nil, removes) the ConfAgent.
func (rt *Runtime) SetHooks(h Hooks) {
	if h == nil {
		rt.hooks.Store(nil)
		return
	}
	rt.hooks.Store(&hooksBox{h: h})
}

// Hooks returns the installed agent, or nil.
func (rt *Runtime) Hooks() Hooks {
	if b := rt.hooks.Load(); b != nil {
		return b.h
	}
	return nil
}

// StartInit is the node-init annotation (paper Fig. 2b line 14). Node
// constructors call it with their node type and must pair it with StopInit.
// Without an agent it is a no-op.
func (rt *Runtime) StartInit(nodeType string) {
	if h := rt.Hooks(); h != nil {
		h.StartInit(nodeType)
	}
}

// StopInit ends the init window opened by StartInit (Fig. 2b line 21).
func (rt *Runtime) StopInit() {
	if h := rt.Hooks(); h != nil {
		h.StopInit()
	}
}

// Go starts fn on a new goroutine, preserving node ownership when an agent
// is attached. Nodes use it for worker goroutines (heartbeat loops, RPC
// handlers) started during initialization.
func (rt *Runtime) Go(fn func()) {
	if h := rt.Hooks(); h != nil {
		fn = h.Inherit(fn)
	}
	if rt.spawn != nil {
		rt.spawn(fn)
		return
	}
	go fn()
}

var confIDs atomic.Uint64

// Conf is the dedicated configuration object (paper Fig. 2a): a mutable
// string-property map with schema-backed defaults. All methods are safe for
// concurrent use.
type Conf struct {
	rt *Runtime
	id uint64

	mu    sync.RWMutex
	props map[string]string
}

// NewConf is the blank constructor (Fig. 2d line 2): it creates an empty
// configuration and notifies the agent.
func (rt *Runtime) NewConf() *Conf {
	c := &Conf{rt: rt, id: confIDs.Add(1), props: make(map[string]string)}
	if h := rt.Hooks(); h != nil {
		h.NewConf(c)
	}
	return c
}

// Clone is the clone constructor (Fig. 2a lines 8–11): it copies all
// explicitly set properties and notifies the agent.
func (c *Conf) Clone() *Conf {
	clone := &Conf{rt: c.rt, id: confIDs.Add(1), props: c.snapshot()}
	if h := c.rt.Hooks(); h != nil {
		h.CloneConf(c, clone)
	}
	return clone
}

// RefToClone is the developer-inserted replacement for storing a shared
// configuration reference inside a node's init function (Fig. 2b lines
// 16–17). Without an agent it returns c unchanged, so instrumented
// applications behave identically outside ZebraConf.
func (c *Conf) RefToClone() *Conf {
	if h := c.rt.Hooks(); h != nil {
		return h.RefToClone(c)
	}
	return c
}

// cloneRaw copies c without notifying the agent. It exists for the agent's
// own RefToClone implementation, which must not re-enter itself.
func (c *Conf) cloneRaw() *Conf {
	return &Conf{rt: c.rt, id: confIDs.Add(1), props: c.snapshot()}
}

// CloneForAgent makes an agent-invisible copy of c. It is exported for the
// ConfAgent only; application code must use Clone.
func (c *Conf) CloneForAgent() *Conf { return c.cloneRaw() }

func (c *Conf) snapshot() map[string]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := make(map[string]string, len(c.props))
	for k, v := range c.props {
		m[k] = v
	}
	return m
}

// ID returns the object's unique identity, the analog of the Java
// hashCode the paper keys its nodeTable and maps by.
func (c *Conf) ID() uint64 { return c.id }

// Runtime returns the runtime this configuration belongs to.
func (c *Conf) Runtime() *Runtime { return c.rt }

// Get returns the value of name: an explicitly set property, else the
// schema default, else "". The agent may override the result.
func (c *Conf) Get(name string) string {
	v, _ := c.lookup(name)
	return v
}

// GetOK is Get plus whether the parameter was found (set or defaulted).
func (c *Conf) GetOK(name string) (string, bool) {
	return c.lookup(name)
}

func (c *Conf) lookup(name string) (string, bool) {
	c.mu.RLock()
	stored, found := c.props[name]
	c.mu.RUnlock()
	if !found {
		stored, found = c.rt.schema.Default(name)
	}
	if h := c.rt.Hooks(); h != nil {
		return h.InterceptGet(c, name, stored, found)
	}
	return stored, found
}

// GetInt returns name parsed as int64, or the schema default, or 0.
// Unparseable values fall back the same way, matching Hadoop's forgiving
// accessors.
func (c *Conf) GetInt(name string) int64 {
	v, ok := c.lookup(name)
	if ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	if d, ok := c.rt.schema.Default(name); ok {
		if n, err := strconv.ParseInt(d, 10, 64); err == nil {
			return n
		}
	}
	return 0
}

// GetBool returns name parsed as bool, with the same fallback as GetInt.
func (c *Conf) GetBool(name string) bool {
	v, ok := c.lookup(name)
	if ok {
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
	}
	if d, ok := c.rt.schema.Default(name); ok {
		if b, err := strconv.ParseBool(d); err == nil {
			return b
		}
	}
	return false
}

// GetTicks returns a duration-valued parameter in simtime ticks.
func (c *Conf) GetTicks(name string) int64 { return c.GetInt(name) }

// Set stores value under name and notifies the agent.
func (c *Conf) Set(name, value string) {
	c.mu.Lock()
	c.props[name] = value
	c.mu.Unlock()
	if h := c.rt.Hooks(); h != nil {
		h.InterceptSet(c, name, value)
	}
}

// SetInt stores an integer value.
func (c *Conf) SetInt(name string, value int64) {
	c.Set(name, strconv.FormatInt(value, 10))
}

// SetBool stores a boolean value.
func (c *Conf) SetBool(name string, value bool) {
	c.Set(name, strconv.FormatBool(value))
}

// SetRaw stores value without notifying the agent. It exists so the agent's
// own parent write-back (paper §6.3 interceptSet) does not recurse.
func (c *Conf) SetRaw(name, value string) {
	c.mu.Lock()
	c.props[name] = value
	c.mu.Unlock()
}

// Unset removes an explicitly set property, restoring the schema default.
func (c *Conf) Unset(name string) {
	c.mu.Lock()
	delete(c.props, name)
	c.mu.Unlock()
}

// Has reports whether name is explicitly set (ignoring defaults).
func (c *Conf) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.props[name]
	return ok
}

// Keys returns the explicitly set property names, sorted.
func (c *Conf) Keys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.props))
	for k := range c.props {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of explicitly set properties.
func (c *Conf) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.props)
}

// Equal reports whether c and other hold identical explicit properties.
func (c *Conf) Equal(other *Conf) bool {
	a, b := c.snapshot(), other.snapshot()
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Diff returns the names whose explicit values differ between c and other,
// sorted. A name set in one and absent in the other counts as different.
func (c *Conf) Diff(other *Conf) []string {
	a, b := c.snapshot(), other.snapshot()
	set := make(map[string]bool)
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			set[k] = true
		}
	}
	for k, v := range b {
		if av, ok := a[k]; !ok || av != v {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
