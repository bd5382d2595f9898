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

// HashAssignment canonically digests an assignment map: entries are
// sorted by (node type, node index, parameter), so two maps with equal
// content — regardless of construction or iteration order — produce the
// same digest. The digest is SHA-256 truncated to 128 bits, hex-encoded;
// far beyond collision reach, because a collision would silently reuse
// the wrong outcome. Each entry is node type, NUL, the node index as a
// little-endian uint64, parameter, NUL, value, NUL; the entries are laid
// out in one buffer and hashed in one call. The key slice lives on the
// stack up to smallAssign entries and the buffer up to smallBuf bytes;
// past either size it is a pooled scratch slice. The hex string is the
// only allocation.
func HashAssignment(assign map[agent.Key]string) string {
	var small [smallAssign]agent.Key
	keys := small[:0]
	var pooled *[]agent.Key
	if len(assign) > smallAssign {
		pooled = keyScratch.Get().(*[]agent.Key)
		*pooled = slices.Grow((*pooled)[:0], len(assign))
		keys = *pooled
	}
	size := 0
	for k, v := range assign {
		keys = append(keys, k)
		size += len(k.NodeType) + len(k.Param) + len(v) + 3 + 8
	}
	slices.SortFunc(keys, compareKeys)
	var stack [smallBuf]byte
	buf := stack[:0]
	var pooledBuf *[]byte
	if size > smallBuf {
		pooledBuf = bufScratch.Get().(*[]byte)
		*pooledBuf = slices.Grow((*pooledBuf)[:0], size)
		buf = *pooledBuf
	}
	for _, k := range keys {
		buf = append(buf, k.NodeType...)
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k.NodeIndex))
		buf = append(buf, k.Param...)
		buf = append(buf, 0)
		buf = append(buf, assign[k]...)
		buf = append(buf, 0)
	}
	sum := sha256.Sum256(buf)
	if pooled != nil {
		clear((*pooled)[:len(assign)]) // the pool is to hold no strings of this assignment
		keyScratch.Put(pooled)
	}
	if pooledBuf != nil {
		bufScratch.Put(pooledBuf)
	}
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// HashAssignment's scratch slices past its stack budget, each grown to the
// largest assignment hashed with it.
var (
	keyScratch = sync.Pool{New: func() any { return new([]agent.Key) }}
	bufScratch = sync.Pool{New: func() any { return new([]byte) }}
)

// HashAssignment's stack budget: a homogeneous arm or a leaf's
// heterogeneous map of a few nodes fits; a large pooled map does not.
const (
	smallAssign = 32
	smallBuf    = 4096
)

// compareKeys is the canonical entry order HashAssignment digests in.
func compareKeys(a, b agent.Key) int {
	if c := strings.Compare(a.NodeType, b.NodeType); c != 0 {
		return c
	}
	if c := cmp.Compare(a.NodeIndex, b.NodeIndex); c != 0 {
		return c
	}
	return strings.Compare(a.Param, b.Param)
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

// call is one execution slot; done closes when res is final.
type call struct {
	done chan struct{}
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
		select {
		case <-cl.done:
			c.obs.Event(obs.EvCacheHit, obs.String("app", c.app), obs.String("scope", "local"))
		default:
			c.obs.Event(obs.EvCacheHit, obs.String("app", c.app), obs.String("scope", "coalesced"))
			<-cl.done
		}
		return cl.res, true
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()

	if c.backend != nil {
		if res, ok := c.backend.Get(key); ok {
			cl.res = res
			close(cl.done)
			c.obs.Event(obs.EvCacheHit, obs.String("app", c.app), obs.String("scope", "shared"))
			return res, true
		}
	}
	c.obs.CounterAdd(obs.MCacheMisses, 1, "app", c.app)
	func() {
		// Release waiters before the backend Put (they must not be held
		// hostage to a slow second-level store) and even if fn panics.
		defer close(cl.done)
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
	cl := &call{done: make(chan struct{}), res: res}
	close(cl.done)
	c.calls[key] = cl
	c.mu.Unlock()
	if c.backend != nil {
		c.backend.Put(key, res)
	}
}
