// Package harness hosts the unit-test registry and execution environment
// ZebraConf drives (paper §3.3): applications register whole-system unit
// tests; the TestGenerator decides which to run with which heterogeneous
// configuration; the TestRunner executes them through this package's
// isolated per-test environments; and the campaign scheduler runs everything
// in parallel and aggregates the results.
package harness

import (
	"fmt"
	"math/rand"
	"sync"

	"zebraconf/internal/confkit"
	"zebraconf/internal/rpcsim"
	"zebraconf/internal/simtime"
)

// Env is one unit test's isolated world: its own configuration runtime (so
// an agent can be attached), its own network fabric, its own clock, and a
// seeded random stream for tests that model nondeterminism. Because nothing
// is process-global, many tests run concurrently in one process — the analog
// of the paper's 20 Docker containers per machine.
//
// The random stream is rand.New(rand.NewSource(seed))'s, call for call. Its
// source (4.9 KB) is made at the Env's first draw, and seeded at the first
// draw of each execution: most tests draw once or never.
type Env struct {
	RT     *confkit.Runtime
	Fabric *rpcsim.Fabric
	Scale  *simtime.Scale

	mu       sync.Mutex
	seed     int64
	rand     *rand.Rand
	seeded   bool // rand stands where seed's stream does
	cleanups []func()
}

// NewEnv builds an environment over schema. seed drives Float64 and Intn.
// A nil scale gives the environment a fresh virtual clock
// (simtime.NewVirtual) whose first member is the calling goroutine; pass a
// wall-clock Scale to wait in real time instead.
func NewEnv(schema *confkit.Registry, scale *simtime.Scale, seed int64) *Env {
	if scale == nil {
		scale = simtime.NewVirtual()
	}
	e := &Env{RT: new(confkit.Runtime), Fabric: new(rpcsim.Fabric), Scale: scale}
	e.RT.SetSpawner(scale.Go)
	e.reset(schema, seed)
	return e
}

// reset readies e's runtime and fabric for an execution over schema whose
// random stream is seed's: what NewEnv builds, and what a recycled frame's
// Env (see frame) becomes. e's clock and agent are the caller's business.
func (e *Env) reset(schema *confkit.Registry, seed int64) {
	e.RT.Reset(schema)
	e.Fabric.Reset()
	e.seed, e.seeded, e.cleanups = seed, false, e.cleanups[:0]
}

// stream locks the Env and returns its random stream, seeded. The caller
// draws from it and unlocks e.mu.
func (e *Env) stream() *rand.Rand {
	e.mu.Lock()
	if e.rand == nil {
		e.rand = rand.New(rand.NewSource(e.seed))
	} else if !e.seeded {
		e.rand.Seed(e.seed)
	}
	e.seeded = true
	return e.rand
}

// NewGroup returns a group of node goroutines: started through RT.Go, so
// they keep their node's ownership, and awaited through the clock.
func (e *Env) NewGroup() *simtime.Group {
	return e.Scale.NewGroup(e.RT.Go)
}

// Float64 returns a deterministic pseudo-random number in [0,1). Unit tests
// use it to model nondeterministic failures; distinct trials get distinct
// seeds, so a flaky test really does flake across trials.
func (e *Env) Float64() float64 {
	r := e.stream()
	defer e.mu.Unlock()
	return r.Float64()
}

// Intn returns a deterministic pseudo-random int in [0,n).
func (e *Env) Intn(n int) int {
	r := e.stream()
	defer e.mu.Unlock()
	return r.Intn(n)
}

// Defer registers a cleanup run by Close in LIFO order. Cluster constructors
// register their shutdown here so nodes stop even when a test times out and
// its own defers never run.
func (e *Env) Defer(fn func()) {
	e.mu.Lock()
	e.cleanups = append(e.cleanups, fn)
	e.mu.Unlock()
}

// Close runs all registered cleanups, then shuts the clock down, which ends
// whatever goroutine of the environment is still parked on it. It is
// idempotent.
func (e *Env) Close() {
	e.runCleanups()
	e.Scale.Shutdown()
}

// runCleanups runs the registered cleanups in LIFO order, once. The slice
// then goes back empty, its capacity kept for the next execution of a
// recycled frame and its closures cleared, unless a Defer during the run
// started another.
func (e *Env) runCleanups() {
	e.mu.Lock()
	cleanups := e.cleanups
	e.cleanups = nil
	e.mu.Unlock()
	defer func() {
		clear(cleanups)
		e.mu.Lock()
		if e.cleanups == nil {
			e.cleanups = cleanups[:0]
		}
		e.mu.Unlock()
	}()
	runLIFO(cleanups)
}

// runLIFO runs the last cleanup and then, whether it returned, panicked or
// ended its goroutine (a blocking clock primitive after Shutdown), the
// rest.
func runLIFO(cleanups []func()) {
	if len(cleanups) == 0 {
		return
	}
	last := len(cleanups) - 1
	defer runLIFO(cleanups[:last])
	defer func() { _ = recover() }()
	cleanups[last]()
}

// T is the testing handle passed to registered unit tests, a deliberately
// small subset of testing.T: the same assertions the applications' real
// JUnit suites use (fail, fail-now, log), recorded rather than reported so
// the TestRunner can compare outcomes across configurations.
type T struct {
	Env *Env

	mu     sync.Mutex
	failed bool
	logs   []string
	// logCap, when positive, bounds the total bytes retained in logs as a
	// ring: the first entry is always kept (Outcome.Msg and the start of
	// the story), then the oldest of the rest are evicted. droppedBytes
	// and droppedMsgs account the evictions, so forensics can mark the
	// truncation explicitly instead of silently losing history.
	logCap       int
	logBytes     int
	droppedBytes int
	droppedMsgs  int
}

// failNow is the panic sentinel FailNow/Fatalf abort the test with.
type failNow struct{}

// appendLog records one message under the lock, enforcing the ring cap.
func (t *T) appendLog(msg string) {
	t.logs = append(t.logs, msg)
	if t.logCap <= 0 {
		return
	}
	t.logBytes += len(msg)
	// Evict from the second entry: the head anchors Msg and the log's
	// beginning, the tail is what diagnosis wants. At least head+tail
	// survive, so even one oversized message never empties the ring.
	for t.logBytes > t.logCap && len(t.logs) > 2 {
		t.logBytes -= len(t.logs[1])
		t.droppedBytes += len(t.logs[1])
		t.droppedMsgs++
		t.logs = append(t.logs[:1], t.logs[2:]...)
	}
}

// Errorf records a failure and continues, like testing.T.Errorf.
func (t *T) Errorf(format string, args ...any) {
	t.mu.Lock()
	t.failed = true
	t.appendLog(fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// Fatalf records a failure and aborts the test, like testing.T.Fatalf.
func (t *T) Fatalf(format string, args ...any) {
	t.Errorf(format, args...)
	panic(failNow{})
}

// FailNow aborts the test, marking it failed.
func (t *T) FailNow() {
	t.mu.Lock()
	t.failed = true
	t.mu.Unlock()
	panic(failNow{})
}

// Logf records a message without failing.
func (t *T) Logf(format string, args ...any) {
	t.mu.Lock()
	t.appendLog(fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// Failed reports whether the test recorded a failure.
func (t *T) Failed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// Logs returns the recorded messages.
func (t *T) Logs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.logs))
	copy(out, t.logs)
	return out
}

// LogDropped reports how many bytes (across how many messages) the
// capped ring evicted; both zero when no cap was set or it never filled.
func (t *T) LogDropped() (bytes, msgs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedBytes, t.droppedMsgs
}

// NoErr is a convenience assertion: it fails fatally when err is non-nil.
func (t *T) NoErr(err error, context string) {
	if err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}
