package simtime

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
)

// Clock is the discrete-event kernel behind a virtual Scale: the current
// tick, a min-heap of (deadline, registration order) waiters, a FIFO of
// goroutines made runnable by a Signal or by Go, and a census of the
// execution's goroutines.
//
// Exactly one goroutine of the execution runs at a time. It holds the
// baton from the moment it is woken until it parks inside a primitive
// (Sleep, Wait, Group.Wait) or returns; only then does the kernel hand the
// baton on: to the head of the runnable FIFO if there is one, otherwise to
// the earliest waiter in the heap (ties in registration order), moving now
// to that waiter's deadline. So time never advances while anything is
// runnable — a timeout cannot fire next to a ready result — and the
// interleaving of an execution is a function of its inputs, not of the Go
// scheduler or the core count. There is no kernel goroutine and no
// time.Sleep: whoever parks does the hand-over.
//
// The token hand-off rule follows from that. Fire does not run the
// goroutines it wakes; it moves them to the FIFO, where they count as
// runnable from that instant, before the firing goroutine can park. Every
// place where one goroutine of the execution blocks on another must
// therefore go through a primitive: a goroutine blocked on a bare channel
// or sync.WaitGroup still holds the baton, and the goroutine it waits for
// never runs. A brief sync.Mutex critical section is fine (nobody else is
// running to contend), provided no holder parks.
//
// The goroutine that creates the clock is its first member and holds the
// baton. Members are added by Go; Leave removes the caller.
//
// The kernel also knows who is parked: every goroutine parked in a
// primitive that has not been handed its wake token. Shutdown hands each of
// them a token marked killed, on which it exits; so a park is one channel
// receive, and a clock's channels are made once, with the clock.
//
// Since the kernel picks who runs, it also knows who runs: every member has
// an identity, a small positive integer, and Scale.Member returns that of
// the member holding the baton. The contract:
//
//   - a member keeps its identity across every park and wake;
//   - every member started by Go gets one no other member of the clock has;
//   - the creator's identity goes with its membership: a goroutine the
//     creator hands the membership to (see Leave) reads the same one;
//   - it reads 0, no member, while the clock is halted and for good once it
//     is shut down, whoever asks — a goroutine still running by then is no
//     longer part of the execution;
//   - the baton holder reads it without c.mu, and a read from outside the
//     execution is safe (it names whoever runs at that instant).
type Clock struct {
	now atomic.Int64  // written under mu; read by Now without it
	cur atomic.Uint64 // identity of the baton holder, 0 for none; written under mu

	mu     sync.Mutex
	seq    uint64
	ids    uint64 // identities handed out
	timers timerHeap
	ready  []runnable // FIFO; ready[head:] is live
	head   int
	live   int       // census: members that have not returned
	limit  int64     // the clock halts rather than pass this tick
	parked []*waiter // parked goroutines without a wake token, in no order

	halted   chan struct{} // one token on halt, once Limit is called
	limited  bool
	isHalted bool
	isDead   bool
	drained  chan struct{} // one token once dead and live == 0
}

func newClock() *Clock {
	c := &Clock{halted: make(chan struct{}, 1), drained: make(chan struct{}, 1)}
	c.resetLocked() // nobody else holds c yet
	return c
}

// resetLocked makes c a clock at tick 0 whose one member, identity 1, is
// the caller, keeping its heap's and FIFO's memory. The caller holds c.mu,
// and the mutex is never replaced: a fired Signal of c's last execution,
// pooled by another execution, may be asked Fired (Scale.Reuse), locking
// c.mu, while c is reset. Holding c.mu also orders the reset after the
// last member's leave, which put drained's token under it. A token nobody
// took is taken here.
func (c *Clock) resetLocked() {
	c.now.Store(0)
	c.cur.Store(1)
	c.seq, c.ids, c.live, c.limit = 0, 1, 1, Forever
	clear(c.timers) // waiters of goroutines Shutdown ended
	c.timers = c.timers[:0]
	c.ready, c.head = c.ready[:0], 0
	c.limited, c.isHalted, c.isDead = false, false, false
	for _, ch := range [...]chan struct{}{c.halted, c.drained} {
		select {
		case <-ch:
		default:
		}
	}
}

// runnable is an entry of the FIFO: a parked goroutine to wake, or the
// function of a goroutine that Go has not started yet — it is started when
// its turn comes, so a spawn costs no park and no wake-up.
type runnable struct {
	w     *waiter
	start func()
	id    uint64 // identity of the member start becomes
}

// waiterPool recycles waiters: a goroutine owns its waiter again the moment
// it is woken, and the wake channel is empty by then.
var waiterPool = sync.Pool{New: func() any { return &waiter{wake: make(chan struct{}, 1)} }}

// waiter is one parked goroutine.
type waiter struct {
	wake     chan struct{} // buffered: the waker never blocks
	id       uint64        // identity of the parked member
	deadline int64
	seq      uint64
	index    int     // position in the heap; -1 when not in it
	parked   int     // position in the clock's parked list, while in it
	sig      *Signal // the signal waited on, while in its waiter list
	fired    bool    // woken by sig, not by the deadline
	killed   bool    // woken by Shutdown: the goroutine exits
}

type timerHeap []*waiter

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *timerHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	w.index = -1
	return w
}

// enter starts a blocking primitive: it takes the lock and, on a clock
// that has been shut down, ends the calling goroutine instead.
func (c *Clock) enter() {
	c.mu.Lock()
	c.exitIfDead()
}

// exitIfDead ends the calling goroutine, which holds c.mu, on a clock that
// has been shut down.
func (c *Clock) exitIfDead() {
	if c.isDead {
		c.mu.Unlock()
		runtime.Goexit()
	}
}

// park hands the baton on and blocks until w is woken. The caller holds
// c.mu, which park releases. Woken by Shutdown, the goroutine ends instead,
// running its deferred calls: that is how teardown releases everything
// still parked.
func (c *Clock) park(w *waiter) {
	w.id = c.cur.Load()
	w.parked = len(c.parked)
	c.parked = append(c.parked, w)
	c.dispatch()
	c.mu.Unlock()
	<-w.wake
	if w.killed {
		runtime.Goexit()
	}
}

// wake hands the baton to w, which leaves the parked list with its token.
// The caller holds c.mu.
func (c *Clock) wake(w *waiter) {
	last := len(c.parked) - 1
	c.parked[w.parked] = c.parked[last]
	c.parked[w.parked].parked = w.parked
	c.parked[last] = nil
	c.parked = c.parked[:last]
	c.cur.Store(w.id)
	w.wake <- struct{}{}
}

// dispatch hands the baton to the next goroutine: the oldest runnable one,
// else the earliest waiter. With nothing to run before the limit the clock
// halts. The caller holds c.mu and is giving the baton up.
func (c *Clock) dispatch() {
	if c.head < len(c.ready) {
		r := c.ready[c.head]
		c.ready[c.head] = runnable{}
		c.head++
		if c.head == len(c.ready) {
			c.ready, c.head = c.ready[:0], 0
		}
		if r.start != nil {
			c.cur.Store(r.id)
			go c.run(r.start)
		} else {
			c.wake(r.w)
		}
		return
	}
	if len(c.timers) == 0 || c.timers[0].deadline > c.limit {
		c.cur.Store(0)
		if !c.limited {
			panic("simtime: deadlock: every goroutine of the execution is parked and no timer is pending")
		}
		if !c.isHalted {
			c.isHalted = true
			c.halted <- struct{}{}
		}
		return
	}
	w := heap.Pop(&c.timers).(*waiter)
	if w.sig != nil {
		w.sig.drop(w)
	}
	if w.deadline > c.now.Load() {
		c.now.Store(w.deadline)
	}
	c.wake(w)
}

// drop removes w from g's waiter list. The caller holds the clock's lock.
func (g *Signal) drop(w *waiter) {
	for i, x := range g.waiters {
		if x == w {
			last := len(g.waiters) - 1
			g.waiters[i] = g.waiters[last]
			g.waiters[last] = nil
			g.waiters = g.waiters[:last]
			break
		}
	}
	w.sig = nil
}

// newWaiter returns a waiter due ticks from now, queued in the heap unless
// ticks is Forever. The caller holds c.mu.
func (c *Clock) newWaiter(ticks int64) *waiter {
	w := waiterPool.Get().(*waiter)
	w.index, w.sig, w.fired, w.killed = -1, nil, false, false
	if ticks == Forever {
		return w
	}
	if ticks < 0 {
		ticks = 0
	}
	c.seq++
	w.deadline, w.seq = c.now.Load()+ticks, c.seq
	heap.Push(&c.timers, w)
	return w
}

func (c *Clock) spawn(fn func()) {
	c.enter()
	c.live++
	c.ids++
	c.ready = append(c.ready, runnable{start: fn, id: c.ids})
	c.mu.Unlock()
}

// run is the body of a goroutine started by dispatch.
func (c *Clock) run(fn func()) {
	defer c.leave()
	fn()
}

// leave removes the calling goroutine from the census and hands the baton
// on.
func (c *Clock) leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live--
	if !c.isDead {
		c.dispatch()
	} else if c.live == 0 {
		c.drained <- struct{}{}
	}
}

func (c *Clock) sleep(ticks int64) {
	c.enter()
	w := c.newWaiter(ticks)
	c.park(w)
	waiterPool.Put(w)
}

func (c *Clock) wait(ticks int64, g *Signal) bool {
	c.mu.Lock()
	if g.fired {
		c.mu.Unlock()
		return true
	}
	c.exitIfDead()
	w := c.newWaiter(ticks)
	w.sig = g
	g.waiters = append(g.waiters, w)
	c.park(w)
	fired := w.fired
	waiterPool.Put(w)
	return fired
}

func (c *Clock) fire(g *Signal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.fired {
		return
	}
	g.fired = true
	for _, w := range g.waiters {
		w.fired, w.sig = true, nil
		if w.index >= 0 {
			heap.Remove(&c.timers, w.index)
		}
		c.ready = append(c.ready, runnable{w: w})
	}
	clear(g.waiters)
	g.waiters = g.waiters[:0] // kept for a Reuse
	// Fired from outside the execution while nothing in it runs: start
	// the woken goroutines now, there is nobody to park and do it.
	if c.cur.Load() == 0 && !c.isDead {
		c.dispatch()
	}
}

// Leave removes the calling goroutine from the clock's census and hands the
// baton on: what a goroutine started by Go does when its function returns.
// It exists for membership that did not come from Go — the clock's creator,
// or a goroutine the creator handed its membership to (the harness runs the
// test body on one, and watches from outside). After Leave the caller is an
// outside observer and must not call a blocking primitive. A no-op on a
// wall-clock Scale.
func (s *Scale) Leave() {
	if c := s.clk(); c != nil {
		c.leave()
	}
}

// Member returns the identity of the clock member holding the baton — to a
// goroutine of the execution, its own — or 0 when there is none: the clock
// is halted or shut down, or s is a wall-clock Scale, which has no members.
// See Clock for the contract.
func (s *Scale) Member() uint64 {
	if c := s.clk(); c != nil {
		return c.cur.Load()
	}
	return 0
}

// Limit sets the last tick the clock may reach, ticks from now, and returns
// a channel that receives one value when the clock halts: every goroutine
// of the execution is parked and the next deadline is past the limit, or
// there is none (a deadlock). The value is for one reader, the caller:
// the channel is the clock's, for every execution it runs. Nothing runs on
// a halted clock until an outside Fire. Without a limit a deadlock panics.
// Nil on a wall-clock Scale.
func (s *Scale) Limit(ticks int64) <-chan struct{} {
	c := s.clk()
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = c.now.Load() + ticks
	c.limited = true
	return c.halted
}

// Shutdown ends the execution: every parked goroutine, and every goroutine
// that calls a blocking primitive from now on, exits through
// runtime.Goexit, running its deferred calls. The returned channel
// receives one value when the census is empty, for one reader however
// often Shutdown is called: the channel is the clock's, for every
// execution it runs. Idempotent; on a wall-clock Scale it does nothing and
// the channel is closed.
func (s *Scale) Shutdown() <-chan struct{} {
	c := s.clk()
	if c == nil {
		return closedChan
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.isDead {
		c.isDead = true
		c.cur.Store(0)
		for _, w := range c.parked {
			w.killed = true
			w.wake <- struct{}{}
		}
		clear(c.parked)
		c.parked = c.parked[:0]
		// Goroutines Go queued but never started will not start now.
		for _, r := range c.ready[c.head:] {
			if r.start != nil {
				c.live--
			}
		}
		clear(c.ready)
		c.ready, c.head = c.ready[:0], 0
		if c.live == 0 {
			c.drained <- struct{}{}
		}
	}
	return c.drained
}

// Recycle makes s's clock, shut down and drained, the fresh clock
// NewVirtual makes, its first member the caller, and reports whether it
// did: it refuses a wall-clock Scale and a clock with members left.
func (s *Scale) Recycle() bool {
	c := s.clk()
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.isDead || c.live != 0 {
		return false
	}
	c.resetLocked()
	return true
}

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Live reports the census: goroutines of the execution that have not
// returned, the clock's creator included until it calls Leave. Zero on a
// wall-clock Scale.
func (s *Scale) Live() int {
	c := s.clk()
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}
