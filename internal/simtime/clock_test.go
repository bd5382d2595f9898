package simtime

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// Every test here is the clock's first member: it may call the primitives
// directly, and a mistake that parks everything panics as a deadlock rather
// than hanging.

func TestSleepAdvancesExactly(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	start := time.Now()
	for _, n := range []int64{1, 7, 1100, 150000} {
		before := s.Now()
		s.Sleep(n)
		if got := s.Now() - before; got != n {
			t.Fatalf("Now moved by %d across Sleep(%d)", got, n)
		}
	}
	s.Sleep(0)
	s.Sleep(-3)
	if got := s.Now(); got != 1+7+1100+150000 {
		t.Fatalf("Now = %d after non-positive sleeps", got)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("151,108 virtual ticks (15 s at the default tick) took %v of wall time", wall)
	}
	w := NewStopwatch(s)
	s.Sleep(40)
	if w.ElapsedTicks() != 40 || w.Elapsed() != 40*DefaultTick {
		t.Fatalf("stopwatch read %d ticks, %v", w.ElapsedTicks(), w.Elapsed())
	}
}

// Waiters wake in deadline order; waiters due on one tick wake in the order
// they registered; and now is each waiter's own deadline when it runs.
func TestHeapOrderAndSameTickFIFO(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	g := s.NewGroup(nil)
	var order []string
	for i, ticks := range []int64{30, 10, 20, 10, 30, 10} {
		i, ticks := i, ticks
		g.Go(func() {
			s.Sleep(ticks)
			order = append(order, fmt.Sprintf("%d@%d", i, s.Now()))
		})
	}
	g.Wait()
	want := []string{"1@10", "3@10", "5@10", "2@20", "0@30", "4@30"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order %v, want %v", order, want)
	}
}

// Goroutines made runnable on a tick — by Go or by Fire — run before the
// next timer of the same tick, in the order they became runnable.
func TestRunnableBeforeNextTimer(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	g := s.NewGroup(nil)
	sig := s.NewSignal()
	var order []string
	g.Go(func() { // registered first: the earlier timer of tick 5
		s.Sleep(5)
		order = append(order, "timerA")
		sig.Fire()
		g.Go(func() { order = append(order, "spawned") })
	})
	g.Go(func() { // the later timer of tick 5
		s.Sleep(5)
		order = append(order, "timerB")
	})
	g.Go(func() {
		s.Wait(Forever, sig)
		order = append(order, "woken")
	})
	g.Wait()
	want := []string{"timerA", "woken", "spawned", "timerB"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %d, want 5", s.Now())
	}
}

// The hand-off rule: a handler that finishes one tick before its caller's
// timeout must never lose to it, because the woken caller is runnable from
// the moment of Fire and time cannot advance past a runnable goroutine.
func TestFireNeverLetsTimeAdvancePastTheWoken(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	timeouts := 0
	for i := 0; i < 1000; i++ {
		done := s.NewSignal()
		start := s.Now()
		s.Go(func() {
			s.Sleep(9)
			done.Fire()
			s.Sleep(5) // the waker parks again right away
		})
		if !s.Wait(10, done) {
			timeouts++
		}
		if got := s.Now() - start; got != 9 {
			t.Fatalf("repeat %d: caller resumed %d ticks after the call, want 9", i, got)
		}
	}
	if timeouts != 0 {
		t.Fatalf("%d of 1000 calls timed out next to a ready result", timeouts)
	}
}

func TestWaitDeadlineSignalAndYield(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	sig := s.NewSignal()
	if s.Wait(25, sig) {
		t.Fatal("unfired signal reported fired")
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %d after Wait(25)", s.Now())
	}
	// A yield lets everything already due on this tick run first — here a
	// goroutine that fires the signal — without time passing.
	s.Go(func() { sig.Fire() })
	if !s.Wait(0, sig) {
		t.Fatal("Wait(0) did not let the runnable goroutine fire the signal")
	}
	if s.Now() != 25 || !sig.Fired() {
		t.Fatalf("yield moved time to %d", s.Now())
	}
	// A fired signal returns at once, whatever the deadline.
	if !s.Wait(Forever, sig) || !s.Wait(1000, sig) || s.Now() != 25 {
		t.Fatal("Wait on a fired signal waited")
	}
	// A stale deadline must not fire later: the waiter left the heap when
	// the signal woke it.
	late := s.NewSignal()
	s.Go(func() { s.Sleep(3); late.Fire() })
	if !s.Wait(50, late) || s.Now() != 28 {
		t.Fatalf("Wait(50) woke at %d, want 28", s.Now())
	}
	s.Sleep(100)
	if s.Now() != 128 {
		t.Fatalf("a cancelled deadline disturbed the clock: Now = %d", s.Now())
	}
}

func TestGroupWaitsAndIsReusable(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	g := s.NewGroup(nil)
	g.Wait() // empty: returns at once
	sum := 0
	for round := 1; round <= 2; round++ {
		for i := int64(1); i <= 3; i++ {
			i := i
			g.Go(func() { s.Sleep(i); sum++ })
		}
		g.Wait()
		if sum != 3*round {
			t.Fatalf("round %d: Wait returned with %d goroutines done", round, sum)
		}
	}
	if s.Now() != 6 {
		t.Fatalf("Now = %d, want 6", s.Now())
	}
	if s.Live() != 1 {
		t.Fatalf("census = %d after every spawned goroutine returned, want 1 (the test)", s.Live())
	}
	if g.spare.c != s.clock || g.idle != nil {
		t.Fatal("Wait parked on a signal of its own making, not on its re-armed spare")
	}
}

// A signal Reuse re-arms is a new signal to Wait, Fire and Fired, and so is
// a zero Signal it arms.
func TestReusedSignalIsNew(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	sig := s.NewSignal()
	sig.Fire()
	for round, g := range []*Signal{sig, sig, new(Signal)} {
		if !s.Reuse(g) {
			t.Fatalf("round %d: Reuse refused a fired signal nobody waits on", round)
		}
		if g.Fired() {
			t.Fatalf("round %d: a re-armed signal reads fired", round)
		}
		start := s.Now()
		if s.Wait(5, g) || s.Now() != start+5 {
			t.Fatalf("round %d: Wait(5) on a re-armed signal reported fired or woke at %+d", round, s.Now()-start)
		}
		s.Go(func() { s.Sleep(3); g.Fire() })
		if !s.Wait(Forever, g) || s.Now() != start+8 || !g.Fired() {
			t.Fatalf("round %d: Wait woke at %+d, fired %v; want +8, true", round, s.Now()-start, g.Fired())
		}
		if !s.Wait(0, g) || s.Now() != start+8 {
			t.Fatalf("round %d: Wait on the fired signal waited", round)
		}
	}
}

// Reuse refuses a signal that has not fired, one with a goroutine parked on
// it above all, and any signal of a wall-clock Scale.
func TestReuseRefuses(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	sig := s.NewSignal()
	if s.Reuse(sig) {
		t.Fatal("Reuse re-armed a signal that has not fired")
	}
	woke := int64(-1)
	s.Go(func() {
		if s.Wait(Forever, sig) {
			woke = s.Now()
		}
	})
	s.Sleep(2) // the goroutine is now listed on sig
	if s.Reuse(sig) {
		t.Fatal("Reuse re-armed a signal with a listed waiter")
	}
	sig.Fire()
	s.Sleep(1)
	if woke != 2 {
		t.Fatalf("the waiter woke at %d, want 2: a refused Reuse must leave the signal as it was", woke)
	}

	wall := &Scale{}
	if wall.Reuse(new(Signal)) || wall.Reuse(sig) {
		t.Fatal("a wall-clock Scale re-armed a signal")
	}
	fired := wall.NewSignal()
	fired.Fire()
	if s.Reuse(fired) || wall.Reuse(fired) || !fired.Fired() {
		t.Fatal("Reuse re-armed a wall-clock signal")
	}
}

// A fired signal moves from a shut-down clock to a fresh one and runs on the
// fresh clock alone.
func TestReuseMovesASignalToAFreshClock(t *testing.T) {
	t.Parallel()
	old := NewVirtual()
	sig := old.NewSignal()
	old.Go(func() { old.Sleep(4); sig.Fire() })
	if !old.Wait(Forever, sig) {
		t.Fatal("Wait on the old clock missed the fire")
	}
	old.Shutdown()

	fresh := NewVirtual()
	if !fresh.Reuse(sig) {
		t.Fatal("Reuse refused a fired signal of a shut-down clock")
	}
	if sig.Fired() || fresh.Wait(6, sig) || fresh.Now() != 6 {
		t.Fatalf("the moved signal reads fired, or Wait(6) woke at %d", fresh.Now())
	}
	fresh.Go(func() { sig.Fire() })
	if !fresh.Wait(Forever, sig) || fresh.Now() != 6 {
		t.Fatalf("a Fire on the fresh clock woke the waiter at %d, want 6", fresh.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("the old clock's Scale accepted the moved signal")
		}
	}()
	old.Wait(1, sig)
}

// NewGroup's spawn hook is used for every goroutine of the group.
func TestGroupSpawnHook(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	wrapped := 0
	g := s.NewGroup(func(fn func()) { wrapped++; s.Go(fn) })
	g.Go(func() {})
	g.Go(func() {})
	g.Wait()
	if wrapped != 2 {
		t.Fatalf("spawn hook ran %d times, want 2", wrapped)
	}
}

// Limit: the clock halts instead of passing the limit, and on a deadlock;
// an outside Fire restarts it; Shutdown ends whatever is parked, running
// deferred calls, and the census drains.
func TestLimitHaltShutdownDrain(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		body func(s *Scale, sig *Signal)
		now  int64
	}{
		{"past the limit", func(s *Scale, _ *Signal) {
			for {
				s.Sleep(30)
			}
		}, 90},
		{"deadlock", func(s *Scale, sig *Signal) { s.Sleep(4); s.Wait(Forever, sig) }, 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := NewVirtual()
			sig := s.NewSignal()
			halted := s.Limit(100)
			unwound := make(chan struct{})
			s.Go(func() {
				defer close(unwound)
				tc.body(s, sig)
			})
			s.Leave() // from here the test only watches
			select {
			case <-halted:
			case <-time.After(10 * time.Second):
				t.Fatal("the clock never halted")
			}
			if s.Now() != tc.now {
				t.Fatalf("halted at tick %d, want %d", s.Now(), tc.now)
			}
			if s.Live() != 1 {
				t.Fatalf("census = %d while the body is parked, want 1", s.Live())
			}
			drained := s.Shutdown()
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				t.Fatal("the census never drained after Shutdown")
			}
			select {
			case <-unwound:
			default:
				t.Fatal("the parked goroutine's deferred calls did not run")
			}
			if s.Live() != 0 {
				t.Fatalf("census = %d after drain", s.Live())
			}
		})
	}
}

func TestOutsideFireRestartsAHaltedClock(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	sig := s.NewSignal()
	halted := s.Limit(Forever - 1)
	got := make(chan int64, 1)
	s.Go(func() {
		s.Wait(Forever, sig)
		s.Sleep(5)
		got <- s.Now()
	})
	s.Leave()
	<-halted // parked on sig with no timer: a deadlock until someone fires it
	sig.Fire()
	select {
	case now := <-got:
		if now != 5 {
			t.Fatalf("resumed goroutine saw tick %d, want 5", now)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a Fire from outside did not restart the clock")
	}
	<-s.Shutdown()
}

// After Shutdown a blocking primitive ends its caller, and a goroutine that
// Go queued but the clock never started is dropped from the census.
func TestShutdownEndsLaterCallersAndDropsUnstarted(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	s.Go(func() { t.Error("a goroutine queued before Shutdown ran after it") })
	drained := s.Shutdown()
	reached := make(chan bool, 1)
	go func() {
		defer func() { reached <- false }()
		s.Sleep(1)
		reached <- true
	}()
	if <-reached {
		t.Fatal("Sleep returned on a clock that was shut down")
	}
	if s.Live() != 1 {
		t.Fatalf("census = %d, want 1 (the test itself)", s.Live())
	}
	s.Leave()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("census did not drain")
	}
}

func TestDeadlockWithoutLimitPanics(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("parking the only goroutine forever did not panic")
		}
	}()
	s.Wait(Forever, s.NewSignal())
}

func TestWaitRejectsForeignSignal(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Wait accepted a signal of another Scale")
		}
	}()
	NewVirtual().Wait(1, (&Scale{}).NewSignal())
}

// recycleScript runs one execution on s, whose first member is the caller,
// and returns what it saw and the signals it fired; it leaves s shut down
// and drained, with a goroutine's waiter still in the heap.
func recycleScript(s *Scale) (trace []string, fired []*Signal) {
	halted := s.Limit(50)
	g := s.NewGroup(nil)
	for i, ticks := range []int64{3, 1, 2, 1} {
		sig := s.NewSignal()
		fired = append(fired, sig)
		g.Go(func() {
			s.Sleep(ticks)
			trace = append(trace, fmt.Sprintf("%d@%d#%d", i, s.Now(), s.Member()))
			sig.Fire()
		})
	}
	g.Wait()
	s.Go(func() { s.Sleep(1000) }) // past the limit: parked at shutdown
	trace = append(trace, fmt.Sprintf("end@%d#%d", s.Now(), s.Member()))
	s.Leave()
	<-halted
	<-s.Shutdown()
	return trace, fired
}

// A fired signal of clock A that another execution holds in a pool is
// re-armed there, asked Fired under A's mutex, from another goroutine
// while A is recycled. The recycle holds that mutex and never replaces it,
// so under -race nothing races, and each execution on the recycled A is
// the one a fresh clock runs.
func TestRecycleWhileAnotherExecutionReusesItsSignals(t *testing.T) {
	t.Parallel()
	if (&Scale{}).Recycle() || NewVirtual().Recycle() {
		t.Fatal("Recycle took a wall-clock Scale or a running clock")
	}
	want, _ := recycleScript(NewVirtual())
	a := NewVirtual()
	_, fired := recycleScript(a)
	for round := 0; round < 200; round++ {
		done := make(chan struct{})
		go func(sigs []*Signal) {
			defer close(done)
			b := NewVirtual()
			for _, g := range sigs {
				if !b.Reuse(g) {
					t.Error("Reuse refused a fired signal of a shut-down clock")
				}
			}
			b.Shutdown()
		}(fired)
		if !a.Recycle() {
			t.Fatalf("round %d: Recycle refused a drained clock", round)
		}
		var got []string
		got, fired = recycleScript(a)
		<-done
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the recycled clock ran %v, a fresh one %v", round, got, want)
		}
	}
}
