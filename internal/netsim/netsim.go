// Package netsim simulates per-node bandwidth limits.
//
// It exists for the paper's balancer case studies (§7.1):
// dfs.datanode.balance.bandwidthPerSec gives each DataNode a byte budget for
// balancing traffic; a DataNode configured with a high limit can flood one
// with a low limit until the victim's small control messages (progress
// reports) queue behind megabytes of data and the Balancer times out. The
// throttler therefore serves acquirers strictly in FIFO order — as a real
// single link would — and supports an optional reserved budget for critical
// traffic, the paper's proposed fix, so the fix is testable too.
//
// The implementation is a debt model: each acquire starts when the previous
// acquirer's bytes have left the link (the "next free" watermark, or now if
// the link is idle), extends the watermark by bytes/rate ticks, and sleeps —
// holding no lock — until its own finish tick. Head-of-line blocking is that
// arithmetic: the k-th of several queued acquirers finishes at the sum of
// the first k durations, identical to a saturated link.
package netsim

import (
	"sync"

	"zebraconf/internal/simtime"
)

// Throttler is a FIFO bandwidth limiter. The zero value is not usable;
// construct with NewThrottler.
type Throttler struct {
	scale *simtime.Scale

	mu           sync.Mutex
	bytesPerTick int64
	reservedFrac float64
	nextFree     int64 // shared budget watermark, in scale ticks
	critNextFree int64 // reserved budget watermark
}

// NewThrottler returns a throttler refilling at bytesPerTick. A
// non-positive rate means unlimited.
func NewThrottler(scale *simtime.Scale, bytesPerTick int64) *Throttler {
	t := &Throttler{scale: scale}
	t.SetRate(bytesPerTick)
	return t
}

// SetRate changes the rate, modeling online reconfiguration of the
// bandwidth limit (HDFS-2202). Non-positive means unlimited.
func (t *Throttler) SetRate(bytesPerTick int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if bytesPerTick < 0 {
		bytesPerTick = 0
	}
	t.bytesPerTick = bytesPerTick
}

// Rate returns the configured rate (0 = unlimited).
func (t *Throttler) Rate() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytesPerTick
}

// ReserveCriticalFraction dedicates frac (0..1) of the rate to traffic
// acquired via AcquireCritical — the paper's proposed workaround for the
// bandwidthPerSec finding. Zero disables the reserve (the default,
// reproducing the bug).
func (t *Throttler) ReserveCriticalFraction(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	t.mu.Lock()
	t.reservedFrac = frac
	t.mu.Unlock()
}

// Acquire blocks until n bytes of shared budget have drained. Acquirers are
// served strictly in arrival order.
func (t *Throttler) Acquire(n int64) {
	if n <= 0 {
		return
	}
	t.drain(n, false)
}

// AcquireCritical is Acquire for critical traffic. With a reserve
// configured it bypasses the shared FIFO entirely; without one it behaves
// like Acquire (the buggy default the paper found).
func (t *Throttler) AcquireCritical(n int64) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	reserved := t.reservedFrac > 0
	t.mu.Unlock()
	if !reserved {
		t.Acquire(n)
		return
	}
	t.drain(n, true)
}

// TryAcquire consumes n bytes if the link is currently idle and reports
// success.
func (t *Throttler) TryAcquire(n int64) bool {
	if n <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rate := t.effectiveRate(false)
	if rate == 0 {
		return true
	}
	now := t.scale.Now()
	if t.nextFree > now {
		return false
	}
	t.nextFree = now + durationTicks(n, rate)
	return true
}

// drain extends the relevant watermark and sleeps until this acquirer's
// bytes have passed the (virtual) link.
func (t *Throttler) drain(n int64, critical bool) {
	t.mu.Lock()
	rate := t.effectiveRate(critical)
	if rate == 0 {
		t.mu.Unlock()
		return
	}
	now := t.scale.Now()
	watermark := &t.nextFree
	if critical {
		watermark = &t.critNextFree
	}
	if *watermark < now {
		*watermark = now
	}
	*watermark += durationTicks(n, rate)
	finish := *watermark
	t.mu.Unlock()

	t.scale.Sleep(finish - now)
}

// effectiveRate returns the rate serving the shared or reserved budget;
// 0 means unlimited. Callers hold t.mu.
func (t *Throttler) effectiveRate(critical bool) int64 {
	if t.bytesPerTick == 0 {
		return 0
	}
	if critical {
		r := int64(float64(t.bytesPerTick) * t.reservedFrac)
		if r < 1 {
			r = 1
		}
		return r
	}
	if t.reservedFrac > 0 {
		r := int64(float64(t.bytesPerTick) * (1 - t.reservedFrac))
		if r < 1 {
			r = 1
		}
		return r
	}
	return t.bytesPerTick
}

// durationTicks converts n bytes at rate bytes/tick into whole ticks,
// rounding up and charging at least one tick.
func durationTicks(n, rate int64) int64 {
	d := (n + rate - 1) / rate
	if d < 1 {
		d = 1
	}
	return d
}
