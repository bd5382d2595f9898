package dist

import (
	"sync"
	"time"

	"zebraconf/internal/core/memo"
)

// remoteCacheTimeout bounds how long a worker waits for the coordinator
// to answer one cache-get before treating it as a miss. Generous for a
// same-host pipe; re-running on a miss is always correct, so a wedged
// coordinator degrades throughput, never results.
const remoteCacheTimeout = 5 * time.Second

// remoteCache is the worker-side memo.Backend speaking the cache-get /
// cache-val / cache-put messages to a coordinator that fronts a persistent
// store this worker cannot open itself (Config.SharedPersistent; a worker
// is given no remoteCache otherwise). Gets are correlated request/response
// pairs (Req); puts are fire-and-forget. Every failure mode — send error,
// timeout, close during shutdown — degrades to a cache miss.
type remoteCache struct {
	send func(Msg) error

	mu      sync.Mutex
	nextReq int64
	pending map[int64]chan Msg
	closed  bool
}

func newRemoteCache(send func(Msg) error) *remoteCache {
	return &remoteCache{send: send, pending: make(map[int64]chan Msg)}
}

// Get asks the coordinator for one key, blocking until the reply
// arrives, the timeout fires, or the cache is closed.
func (rc *remoteCache) Get(k memo.Key) (memo.Result, bool) {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return memo.Result{}, false
	}
	rc.nextReq++
	req := rc.nextReq
	ch := make(chan Msg, 1)
	rc.pending[req] = ch
	rc.mu.Unlock()

	key := k
	if err := rc.send(Msg{Type: MsgCacheGet, Req: req, CacheKey: &key}); err != nil {
		rc.drop(req)
		return memo.Result{}, false
	}
	timer := time.NewTimer(remoteCacheTimeout)
	defer timer.Stop()
	select {
	case m, ok := <-ch:
		if !ok || !m.CacheHit || m.CacheRes == nil {
			return memo.Result{}, false
		}
		return *m.CacheRes, true
	case <-timer.C:
		rc.drop(req)
		return memo.Result{}, false
	}
}

// Put publishes one executed result, fire-and-forget.
func (rc *remoteCache) Put(k memo.Key, res memo.Result) {
	key, val := k, res
	rc.send(Msg{Type: MsgCachePut, CacheKey: &key, CacheRes: &val})
}

// deliver routes one cache-val reply to its waiting Get; unmatched
// replies (already timed out or dropped) are discarded.
func (rc *remoteCache) deliver(m Msg) {
	rc.mu.Lock()
	ch, ok := rc.pending[m.Req]
	if ok {
		delete(rc.pending, m.Req)
	}
	rc.mu.Unlock()
	if ok {
		ch <- m
	}
}

// close releases every pending Get as a miss. The worker calls it before
// waiting on in-flight items at shutdown: the coordinator is gone, so a
// Get blocked on the wire would deadlock the drain.
func (rc *remoteCache) close() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return
	}
	rc.closed = true
	for req, ch := range rc.pending {
		delete(rc.pending, req)
		close(ch)
	}
}

// drop abandons one request's slot (send failure or timeout).
func (rc *remoteCache) drop(req int64) {
	rc.mu.Lock()
	delete(rc.pending, req)
	rc.mu.Unlock()
}
