package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestZeroScaleUsesDefault(t *testing.T) {
	t.Parallel()
	var s Scale
	if got := s.Dur(1); got != DefaultTick {
		t.Fatalf("Dur(1) = %v, want %v", got, DefaultTick)
	}
	var nilScale *Scale
	if got := nilScale.Dur(2); got != 2*DefaultTick {
		t.Fatalf("nil scale Dur(2) = %v, want %v", got, 2*DefaultTick)
	}
}

func TestDurNegativeAndZero(t *testing.T) {
	t.Parallel()
	s := &Scale{Tick: time.Millisecond}
	if s.Dur(0) != 0 || s.Dur(-5) != 0 {
		t.Fatal("non-positive ticks must yield zero duration")
	}
	if got := s.Dur(3); got != 3*time.Millisecond {
		t.Fatalf("Dur(3) = %v", got)
	}
}

func TestSleepElapses(t *testing.T) {
	t.Parallel()
	s := &Scale{Tick: time.Millisecond}
	start := time.Now()
	s.Sleep(5)
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("Sleep(5) returned after %v", elapsed)
	}
}

func TestNowMonotonic(t *testing.T) {
	t.Parallel()
	s := &Scale{Tick: 100 * time.Microsecond}
	a := s.Now()
	s.Sleep(5)
	b := s.Now()
	if b < a+3 {
		t.Fatalf("Now went from %d to %d across a 5-tick sleep", a, b)
	}
	if s.Since(a) < 3 {
		t.Fatalf("Since(a) = %d", s.Since(a))
	}
}

func TestStopwatch(t *testing.T) {
	t.Parallel()
	s := &Scale{Tick: time.Millisecond}
	w := NewStopwatch(s)
	s.Sleep(4)
	if ticks := w.ElapsedTicks(); ticks < 3 {
		t.Fatalf("ElapsedTicks = %d after a 4-tick sleep", ticks)
	}
	if w.Elapsed() <= 0 {
		t.Fatal("Elapsed not positive")
	}
}

// Property: Dur is linear in positive tick counts.
func TestDurLinearityProperty(t *testing.T) {
	t.Parallel()
	s := &Scale{Tick: time.Microsecond}
	fn := func(a, b uint16) bool {
		ta, tb := int64(a), int64(b)
		return s.Dur(ta)+s.Dur(tb) == s.Dur(ta+tb)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// The wall-clock branch of Wait and Signal: a deadline passes in real time,
// a fired signal wins, and Forever waits for the signal alone.
func TestWallClockWaitAndSignal(t *testing.T) {
	t.Parallel()
	s := &Scale{Tick: time.Millisecond}
	sig := s.NewSignal()
	start := time.Now()
	if s.Wait(2, sig) {
		t.Fatal("Wait reported an unfired signal as fired")
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("Wait(2) returned after %v", elapsed)
	}
	s.Go(func() {
		s.Sleep(1)
		sig.Fire()
		sig.Fire() // idempotent
	})
	if !s.Wait(Forever, sig) || !sig.Fired() {
		t.Fatal("Wait(Forever) returned without the signal")
	}
	if !s.Wait(0, sig) {
		t.Fatal("a fired signal lost to an expired deadline")
	}
	g := s.NewGroup(nil)
	var n int
	g.Go(func() { s.Sleep(1); n = 1 })
	g.Wait()
	if n != 1 {
		t.Fatal("Group.Wait returned before its goroutine")
	}
	if s.Limit(1) != nil || s.Live() != 0 {
		t.Fatal("a wall-clock Scale has no limit and no census")
	}
	select {
	case <-s.Shutdown():
	default:
		t.Fatal("Shutdown of a wall-clock Scale must report drained at once")
	}
}
