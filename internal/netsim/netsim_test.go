package netsim

import (
	"testing"
	"time"

	"zebraconf/internal/simtime"
)

// testScale returns a virtual clock whose first member is the calling test:
// orderings and tick counts below are exact, whatever the host is doing.
func testScale(t *testing.T) *simtime.Scale {
	scale := simtime.NewVirtual()
	t.Cleanup(func() { scale.Shutdown() }) // ends acquirers a test left queued
	return scale
}

func TestUnlimitedNeverBlocks(t *testing.T) {
	t.Parallel()
	th := NewThrottler(testScale(t), 0)
	done := make(chan struct{})
	go func() {
		th.Acquire(1 << 40)
		th.AcquireCritical(1 << 40)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("unlimited throttler blocked")
	}
}

func TestRatePacing(t *testing.T) {
	t.Parallel()
	scale := testScale(t)
	th := NewThrottler(scale, 10) // 10 bytes/tick
	w := simtime.NewStopwatch(scale)
	th.Acquire(500) // should take ~50 ticks
	elapsed := w.ElapsedTicks()
	if elapsed < 40 || elapsed > 200 {
		t.Fatalf("Acquire(500) at 10 B/tick took %d ticks, want ~50", elapsed)
	}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	t.Parallel()
	scale := testScale(t)
	th := NewThrottler(scale, 10)

	var order []string
	g := scale.NewGroup(nil)
	g.Go(func() {
		th.Acquire(1000) // 100 ticks
		order = append(order, "big")
	})
	scale.Sleep(10) // let the big acquire join first
	g.Go(func() {
		th.Acquire(16) // tiny, but behind the big one
		order = append(order, "small")
	})
	g.Wait()
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("completion order %v, want the big acquire first (FIFO)", order)
	}
}

func TestCriticalReserveBypassesQueue(t *testing.T) {
	t.Parallel()
	scale := testScale(t)
	th := NewThrottler(scale, 10)
	th.ReserveCriticalFraction(0.2)

	scale.Go(func() {
		th.Acquire(5000) // occupies the shared queue for 500+ ticks
	})
	scale.Sleep(5)
	w := simtime.NewStopwatch(scale)
	th.AcquireCritical(16) // reserved budget: ~16/2 = 8 ticks
	if elapsed := w.ElapsedTicks(); elapsed > 100 {
		t.Fatalf("critical acquire waited %d ticks behind the shared queue", elapsed)
	}
}

func TestCriticalWithoutReserveJoinsQueue(t *testing.T) {
	t.Parallel()
	scale := testScale(t)
	th := NewThrottler(scale, 10)

	scale.Go(func() { th.Acquire(2000) }) // 200 ticks of head-of-line blocking
	scale.Sleep(10)
	w := simtime.NewStopwatch(scale)
	th.AcquireCritical(16)
	if elapsed := w.ElapsedTicks(); elapsed < 100 {
		t.Fatalf("critical acquire without a reserve finished in %d ticks; it must queue (the paper's bug)", elapsed)
	}
}

func TestSetRateReconfigures(t *testing.T) {
	t.Parallel()
	scale := testScale(t)
	th := NewThrottler(scale, 1)
	th.SetRate(1000)
	if th.Rate() != 1000 {
		t.Fatalf("Rate = %d", th.Rate())
	}
	w := simtime.NewStopwatch(scale)
	th.Acquire(1000) // 1 tick at the new rate
	if elapsed := w.ElapsedTicks(); elapsed > 50 {
		t.Fatalf("acquire after rate increase took %d ticks", elapsed)
	}
	th.SetRate(-5)
	if th.Rate() != 0 {
		t.Fatalf("negative rate not clamped to unlimited: %d", th.Rate())
	}
}

func TestTryAcquire(t *testing.T) {
	t.Parallel()
	scale := testScale(t)
	th := NewThrottler(scale, 10)
	if !th.TryAcquire(0) {
		t.Fatal("TryAcquire(0) = false")
	}
	if !th.TryAcquire(50) {
		t.Fatal("first TryAcquire on an idle link = false")
	}
	// The link is now busy for ~5 ticks; an immediate retry must fail.
	if th.TryAcquire(50) {
		t.Fatal("TryAcquire succeeded while the link was busy")
	}
	scale.Sleep(20)
	if !th.TryAcquire(10) {
		t.Fatal("TryAcquire failed after the link drained")
	}
}

func TestDurationTicksRounding(t *testing.T) {
	t.Parallel()
	cases := []struct{ n, rate, want int64 }{
		{1, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{100, 3, 34},
	}
	for _, c := range cases {
		if got := durationTicks(c.n, c.rate); got != c.want {
			t.Errorf("durationTicks(%d, %d) = %d, want %d", c.n, c.rate, got, c.want)
		}
	}
}

// On a virtual clock head-of-line blocking is exact arithmetic: the k-th of
// several queued acquirers finishes at the sum of the first k durations, and
// an acquirer that finds the link idle starts from its own arrival tick.
func TestQueuedAcquirersFinishAtClosedFormTicks(t *testing.T) {
	t.Parallel()
	scale := testScale(t)
	th := NewThrottler(scale, 10) // 10 bytes/tick
	finish := make(map[string]int64)
	g := scale.NewGroup(nil)
	for _, a := range []struct {
		name  string
		bytes int64
	}{{"big", 1000}, {"tiny", 16}, {"mid", 500}} { // 100, 2 and 50 ticks
		a := a
		g.Go(func() {
			th.Acquire(a.bytes)
			finish[a.name] = scale.Now()
		})
	}
	g.Wait()
	want := map[string]int64{"big": 100, "tiny": 102, "mid": 152}
	for name, tick := range want {
		if finish[name] != tick {
			t.Fatalf("finish ticks %v, want %v", finish, want)
		}
	}
	if !th.TryAcquire(10) {
		t.Fatal("TryAcquire failed on the tick the link drains")
	}
	scale.Sleep(48) // tick 200: the link has been idle since 153
	th.Acquire(30)
	if scale.Now() != 203 {
		t.Fatalf("acquire on an idle link finished at %d, want 203", scale.Now())
	}

	// The critical reserve is a second link: 20 % of the rate, its own queue.
	th.ReserveCriticalFraction(0.2)
	g.Go(func() { th.Acquire(800) }) // 800 B at the remaining 8 B/tick: until 303
	scale.Sleep(1)
	th.AcquireCritical(16) // 16 B at 2 B/tick from tick 204
	if scale.Now() != 212 {
		t.Fatalf("critical acquire finished at %d, want 212", scale.Now())
	}
	g.Wait()
	if scale.Now() != 303 {
		t.Fatalf("shared acquire finished at %d, want 303", scale.Now())
	}
}
