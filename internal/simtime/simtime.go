// Package simtime is the clock of one unit-test execution.
//
// The paper's experiments run against real clusters where heartbeat
// intervals are seconds and balancer timeouts are 100 s. Every
// duration-valued configuration parameter in the mini applications is
// therefore an integer count of abstract ticks, and every layer that waits
// — node loops, the RPC fabric, the bandwidth throttler, the test bodies —
// waits through the *Scale its environment carries.
//
// A Scale made by NewVirtual is backed by a Clock, a discrete-event kernel:
// time is a tick counter that jumps to the earliest pending deadline the
// moment every goroutine of the execution is parked, so waiting costs no
// wall time and two deadlines are ordered exactly, not approximately. A
// Scale without a Clock (the zero value, a nil pointer, or one with an
// explicit Tick) maps ticks to real durations and every primitive is a few
// lines over channels and package time; microbenchmarks and package tests
// that want real waiting construct one directly.
//
// The primitives are the same on both: Go, Sleep, Now, a one-shot Signal,
// Wait (a signal or a timeout, whichever is first) and Group. On a virtual
// Scale they are the only way a goroutine of the execution may block on
// another one; see Clock for the rule and DESIGN.md §1 for the reasons.
package simtime

import (
	"math"
	"sync"
	"time"
)

// DefaultTick is the tick duration of a wall-clock Scale whose Tick is
// zero, and the rate at which real-time budgets (the harness's per-test
// timeout) convert to ticks on a virtual one. 100 µs keeps a 1100-tick
// congestion backoff (the HDFS balancer constant) at 110 ms.
const DefaultTick = 100 * time.Microsecond

// Forever as a tick count means no deadline.
const Forever int64 = math.MaxInt64

// Scale is the handle every layer passes around. The zero value (and nil)
// is a wall-clock scale at DefaultTick.
type Scale struct {
	// Tick is the real duration of one tick on a wall-clock Scale. Zero
	// means DefaultTick.
	Tick time.Duration

	clock *Clock
}

// NewVirtual returns a Scale backed by a fresh Clock. The calling goroutine
// is the clock's first member (see Clock).
func NewVirtual() *Scale { return &Scale{clock: newClock()} }

// clk returns the backing clock, or nil on a wall-clock Scale.
func (s *Scale) clk() *Clock {
	if s == nil {
		return nil
	}
	return s.clock
}

// tick returns the effective tick duration.
func (s *Scale) tick() time.Duration {
	if s == nil || s.Tick <= 0 {
		return DefaultTick
	}
	return s.Tick
}

// Dur converts ticks to a real duration. Negative tick counts yield zero.
func (s *Scale) Dur(ticks int64) time.Duration {
	if ticks <= 0 {
		return 0
	}
	return time.Duration(ticks) * s.tick()
}

// Go runs fn on a new goroutine of the execution.
func (s *Scale) Go(fn func()) {
	if c := s.clk(); c != nil {
		c.spawn(fn)
		return
	}
	go fn()
}

// Sleep blocks for ticks ticks. On a virtual Scale, Now afterwards is
// exactly ticks later.
func (s *Scale) Sleep(ticks int64) {
	if ticks <= 0 {
		return
	}
	if c := s.clk(); c != nil {
		c.sleep(ticks)
		return
	}
	time.Sleep(s.Dur(ticks))
}

// Now returns the current time in ticks: since the clock's creation on a
// virtual Scale, since an arbitrary process-wide epoch on a wall-clock one.
func (s *Scale) Now() int64 {
	if c := s.clk(); c != nil {
		return c.now.Load()
	}
	return int64(time.Since(epoch) / s.tick())
}

// Since reports the ticks elapsed since a Now value.
func (s *Scale) Since(start int64) int64 {
	return s.Now() - start
}

var epoch = time.Now()

// Signal is a one-shot event: Fire it once, and every present and future
// Wait on it returns true. Make one with Scale.NewSignal.
type Signal struct {
	c *Clock // nil on a wall-clock Scale

	// Wall-clock state.
	once sync.Once
	ch   chan struct{}

	// Virtual state, guarded by c.mu.
	fired   bool
	waiters []*waiter
}

// NewSignal returns an unfired signal bound to s.
func (s *Scale) NewSignal() *Signal {
	if c := s.clk(); c != nil {
		return &Signal{c: c}
	}
	return &Signal{ch: make(chan struct{})}
}

// Reuse re-arms g, a zero Signal or a fired one of any clock that only the
// caller may still Fire or Wait on, as an unfired signal bound to s, and
// reports whether it did. It refuses an unfired signal, and anything on a
// wall-clock Scale, whose signals close a channel once.
func (s *Scale) Reuse(g *Signal) bool {
	c := s.clk()
	if c == nil || g.ch != nil || g.c != nil && !g.Fired() {
		return false
	}
	g.c, g.fired = c, false
	return true
}

// Fire fires the signal. Later calls are no-ops. Firing does not block and
// may be done from outside the execution.
func (g *Signal) Fire() {
	if g.c != nil {
		g.c.fire(g)
		return
	}
	g.once.Do(func() { close(g.ch) })
}

// Fired reports whether the signal has fired.
func (g *Signal) Fired() bool {
	if c := g.c; c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		return g.fired
	}
	select {
	case <-g.ch:
		return true
	default:
		return false
	}
}

// Wait blocks until sig fires or ticks ticks pass, and reports whether sig
// fired. It replaces
//
//	select { case <-stop: …; case <-time.After(d): … }
//
// A fired signal wins over an expired deadline. With Forever there is no
// deadline. With ticks <= 0 and sig unfired, a virtual Wait yields: it
// returns once everything else that can run on the current tick has run
// (sig may have fired by then), without time passing.
func (s *Scale) Wait(ticks int64, sig *Signal) (fired bool) {
	c := s.clk()
	if sig.c != c {
		panic("simtime: Wait on a signal of another Scale")
	}
	if c != nil {
		return c.wait(ticks, sig)
	}
	if ticks == Forever {
		<-sig.ch
		return true
	}
	timer := time.NewTimer(s.Dur(ticks))
	defer timer.Stop()
	select {
	case <-sig.ch:
		return true
	case <-timer.C:
		return sig.Fired()
	}
}

// Group is a set of goroutines that can be waited for: the replacement for
// a sync.WaitGroup on every "fire stop, then wait for the loops" path.
type Group struct {
	s     *Scale
	spawn func(func())

	mu    sync.Mutex
	n     int
	idle  *Signal // what a parked Wait sleeps on; nil when nobody waits
	spare Signal  // idle's storage wherever Reuse can re-arm it
}

// NewGroup returns an empty group whose goroutines are started through
// spawn — a wrapper around s.Go that adds something of its own, such as
// confkit.Runtime.Go's node ownership — or through s.Go when spawn is nil.
func (s *Scale) NewGroup(spawn func(func())) *Group {
	if spawn == nil {
		spawn = s.Go
	}
	return &Group{s: s, spawn: spawn}
}

// Go runs fn on a new goroutine that Wait waits for.
func (g *Group) Go(fn func()) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	g.spawn(func() {
		defer g.done()
		fn()
	})
}

func (g *Group) done() {
	g.mu.Lock()
	g.n--
	var idle *Signal
	if g.n == 0 {
		idle, g.idle = g.idle, nil
	}
	g.mu.Unlock()
	if idle != nil {
		idle.Fire()
	}
}

// Wait blocks until every goroutine started with Go has returned.
func (g *Group) Wait() {
	for {
		g.mu.Lock()
		if g.n == 0 {
			g.mu.Unlock()
			return
		}
		if g.idle == nil {
			if g.idle = &g.spare; !g.s.Reuse(g.idle) {
				g.idle = g.s.NewSignal()
			}
		}
		idle := g.idle
		g.mu.Unlock()
		g.s.Wait(Forever, idle)
	}
}

// Stopwatch measures elapsed ticks on a Scale.
type Stopwatch struct {
	scale *Scale
	start int64
}

// NewStopwatch starts a stopwatch on scale.
func NewStopwatch(scale *Scale) *Stopwatch {
	return &Stopwatch{scale: scale, start: scale.Now()}
}

// ElapsedTicks returns ticks elapsed since the stopwatch started.
func (w *Stopwatch) ElapsedTicks() int64 {
	return w.scale.Since(w.start)
}

// Elapsed returns the elapsed ticks as a duration at the scale's tick.
func (w *Stopwatch) Elapsed() time.Duration {
	return w.scale.Dur(w.ElapsedTicks())
}
