// Package memo is ZebraConf's content-addressed execution cache. The
// harness is seeded-deterministic: one unit-test run is a pure function
// of (app, test, configuration assignment, seed). Once homogeneous-arm
// and pooled-run seeds derive from the canonical sorted assignment
// instead of the per-instance label (see SeedFor), two runs with equal
// cache keys are guaranteed byte-identical — so reusing a cached outcome
// can change no verdict, only skip redundant executions. This is where
// the paper's TestRunner (§5) spends most of its budget: every instance
// of the same parameter runs the *identical* homogeneous baseline, and
// Definition 3.1 never needed it recomputed per instance.
package memo

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"zebraconf/internal/core/agent"
	"zebraconf/internal/obs"
)

// Key addresses one deterministic unit-test execution. Assign is the
// canonical assignment digest from HashAssignment, hex-encoded so the
// key survives JSON round trips (the dist protocol ships keys on the
// wire, and a raw uint64 would lose precision through float64).
type Key struct {
	App    string `json:"app"`
	Test   string `json:"test"`
	Assign string `json:"assign"`
	Seed   int64  `json:"seed"`
}

// Result is the cacheable outcome of one execution — the fields verdict
// logic consumes from a harness outcome, plus the execution's coverage
// read set. Reads rides every cache tier (memory, disk, coordinator) so
// a cache hit — which skips the agent entirely — can still replay its
// coverage edges into the index; without it a warm rerun would build an
// empty index and select nothing. Entries written by coverage-disabled
// runs carry no Reads and degrade conservatively (no edge, no
// deselection).
type Result struct {
	Failed   bool     `json:"failed,omitempty"`
	TimedOut bool     `json:"timed_out,omitempty"`
	Msg      string   `json:"msg,omitempty"`
	Reads    []string `json:"reads,omitempty"`
}

// Backend is a second-level store behind a Cache's in-process map — the
// disk store — so what an earlier campaign executed is not executed again.
// A Backend that fails should report a miss, never an error — re-running
// is always correct, just slower.
type Backend interface {
	Get(Key) (Result, bool)
	Put(Key, Result)
}

// Entry is one (entity, parameter) → value entry of an assignment.
type Entry struct {
	Key   agent.Key
	Value string
}

// HashAssignment canonically digests an assignment map: its entries are
// collected, sorted in CompareEntries order and hashed by HashEntries, so
// two maps with equal content — regardless of construction or iteration
// order — produce the same digest. The entry slice lives on the stack up
// to smallAssign entries and is a pooled scratch slice past that; the hex
// string is the only allocation.
func HashAssignment(assign map[agent.Key]string) string {
	var small [smallAssign]Entry
	entries := small[:0]
	var pooled *[]Entry
	if len(assign) > smallAssign {
		pooled = entryScratch.Get().(*[]Entry)
		*pooled = slices.Grow((*pooled)[:0], len(assign))
		entries = *pooled
	}
	for k, v := range assign {
		entries = append(entries, Entry{k, v})
	}
	slices.SortFunc(entries, CompareEntries)
	digest := HashEntries(entries)
	if pooled != nil {
		clear(entries) // the pool is to hold no strings of this assignment
		entryScratch.Put(pooled)
	}
	return digest
}

// HashEntries digests an assignment given as its entries in CompareEntries
// order, no key twice — the one definition of the digest's bytes. The
// digest is SHA-256 truncated to 128 bits, hex-encoded; far beyond
// collision reach, because a collision would silently reuse the wrong
// outcome. Each entry is node type, NUL, the node index as a little-endian
// uint64, parameter, NUL, value, NUL; the entries are laid out in one
// buffer and hashed in one call. The buffer lives on the stack up to
// smallBuf bytes and is a pooled scratch slice past that; the hex string
// is the only allocation.
func HashEntries(entries []Entry) string {
	size := 0
	for _, e := range entries {
		size += len(e.Key.NodeType) + len(e.Key.Param) + len(e.Value) + 3 + 8
	}
	var stack [smallBuf]byte
	buf := stack[:0]
	var pooled *[]byte
	if size > smallBuf {
		pooled = bufScratch.Get().(*[]byte)
		*pooled = slices.Grow((*pooled)[:0], size)
		buf = *pooled
	}
	for _, e := range entries {
		buf = append(buf, e.Key.NodeType...)
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Key.NodeIndex))
		buf = append(buf, e.Key.Param...)
		buf = append(buf, 0)
		buf = append(buf, e.Value...)
		buf = append(buf, 0)
	}
	sum := sha256.Sum256(buf)
	if pooled != nil {
		bufScratch.Put(pooled)
	}
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// HashAssignment's and HashEntries' scratch slices past their stack
// budgets, each grown to the largest assignment hashed with it.
var (
	entryScratch = sync.Pool{New: func() any { return new([]Entry) }}
	bufScratch   = sync.Pool{New: func() any { return new([]byte) }}
)

// The stack budgets: a homogeneous arm or a leaf's heterogeneous map of a
// few nodes fits; a large pooled map does not.
const (
	smallAssign = 32
	smallBuf    = 4096
)

// CompareEntries is the canonical entry order digests are taken in: node
// type, node index, parameter. Values do not take part: an assignment
// holds a key once.
func CompareEntries(a, b Entry) int {
	if c := strings.Compare(a.Key.NodeType, b.Key.NodeType); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key.NodeIndex, b.Key.NodeIndex); c != 0 {
		return c
	}
	return strings.Compare(a.Key.Param, b.Key.Param)
}

// SeedFor derives the canonical per-run seed for an assignment-addressed
// execution: it depends only on (base seed, test, assignment digest,
// round) — NOT on which instance label asked for the run. Homogeneous
// arms and pooled runs use this derivation, so every instance needing
// the same baseline performs the byte-identical trial; confirmation
// rounds keep round in the mix, so repeated trials of a nondeterministic
// test still vary.
func SeedFor(base int64, test, assignHash string, round int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(test))
	h.Write([]byte{0})
	h.Write([]byte(assignHash))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(b[:], uint64(round))
	h.Write(b[:])
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// Cache memoizes executions with singleflight semantics: concurrent
// callers with the same key coalesce onto one in-flight run instead of
// duplicating it. A nil *Cache is valid and always executes — callers
// never branch on whether memoization is enabled. Its effectiveness is
// counted in the Observer's registry only: a reuse is one cache_hit event
// (scope local = a completed in-process entry, shared = the Backend,
// coalesced = an in-flight identical run joined), each of which saved
// exactly one execution; a real execution is one MCacheMisses.
type Cache struct {
	app     string
	backend Backend
	obs     *obs.Observer

	mu    sync.Mutex
	calls map[Key]*call
}

// call is one execution slot, a single allocation: wg is released and
// done set once res is final. done only tells a completed entry (a local
// hit) from an in-flight one (a coalesced wait); wg is what orders res.
type call struct {
	wg   sync.WaitGroup
	done atomic.Bool
	res  Result
}

// NewCache builds a cache for one app. backend may be nil (purely
// in-process); o may be nil (no metrics).
func NewCache(app string, backend Backend, o *obs.Observer) *Cache {
	return &Cache{app: app, backend: backend, obs: o, calls: make(map[Key]*call)}
}

// Do returns the memoized result for key, executing fn at most once per
// key across all concurrent callers. reused reports whether fn was
// skipped — by a completed entry, a backend hit, or coalescing onto an
// in-flight run. On a nil receiver Do simply executes fn.
func (c *Cache) Do(key Key, fn func() Result) (res Result, reused bool) {
	if c == nil {
		return fn(), false
	}
	c.mu.Lock()
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		if cl.done.Load() {
			c.hit("local")
		} else {
			c.hit("coalesced")
		}
		cl.wg.Wait()
		return cl.res, true
	}
	cl := new(call)
	cl.wg.Add(1)
	c.calls[key] = cl
	c.mu.Unlock()

	if c.backend != nil {
		if res, ok := c.backend.Get(key); ok {
			cl.res = res
			cl.release()
			c.hit("shared")
			return res, true
		}
	}
	c.obs.CounterAdd(obs.MCacheMisses, 1, "app", c.app)
	func() {
		// Release waiters before the backend Put (they must not be held
		// hostage to a slow second-level store) and even if fn panics.
		defer cl.release()
		cl.res = fn()
	}()
	if c.backend != nil {
		c.backend.Put(key, cl.res)
	}
	return cl.res, false
}

// Record registers an already-performed execution's result under key
// without ever skipping work: it fills the local slot and writes
// through to the backend, so a later Do for the same key (a resubmit
// of the same campaign) hits. Callers that must execute regardless —
// forensic capture, whose evidence only exists on a real run — use
// this to still seed the cache. A completed or in-flight entry wins;
// a no-op on a nil receiver.
func (c *Cache) Record(key Key, res Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.calls[key]; ok {
		c.mu.Unlock()
		return
	}
	cl := &call{res: res}
	cl.done.Store(true)
	c.calls[key] = cl
	c.mu.Unlock()
	if c.backend != nil {
		c.backend.Put(key, res)
	}
}

// release marks the slot's result final and wakes its waiters.
func (cl *call) release() {
	cl.done.Store(true)
	cl.wg.Done()
}

// hit is a reuse's cache_hit event, its attributes built only for an
// observer to receive.
func (c *Cache) hit(scope string) {
	if c.obs != nil {
		c.obs.Event(obs.EvCacheHit, obs.String("app", c.app), obs.String("scope", scope))
	}
}
