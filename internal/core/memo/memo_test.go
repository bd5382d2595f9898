package memo

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"zebraconf/internal/core/agent"
	"zebraconf/internal/obs"
)

func k(nodeType string, idx int, param string) agent.Key {
	return agent.Key{NodeType: nodeType, NodeIndex: idx, Param: param}
}

func TestHashAssignmentOrderIndependent(t *testing.T) {
	// The same logical assignment built in different insertion orders
	// must digest identically: the canonical sort is the whole point.
	a := map[agent.Key]string{
		k("namenode", 0, "dfs.checksum.type"):      "CRC32C",
		k("datanode", 1, "dfs.checksum.type"):      "CRC32",
		k("datanode", 0, "dfs.checksum.type"):      "CRC32",
		k("namenode", 0, "dfs.bytes-per-checksum"): "512",
	}
	b := map[agent.Key]string{}
	// Reverse-ish construction order.
	b[k("namenode", 0, "dfs.bytes-per-checksum")] = "512"
	b[k("datanode", 0, "dfs.checksum.type")] = "CRC32"
	b[k("datanode", 1, "dfs.checksum.type")] = "CRC32"
	b[k("namenode", 0, "dfs.checksum.type")] = "CRC32C"
	ha, hb := HashAssignment(a), HashAssignment(b)
	if ha != hb {
		t.Fatalf("equal assignments hashed differently: %s vs %s", ha, hb)
	}
	if len(ha) != 32 {
		t.Fatalf("digest should be 16 bytes hex-encoded (32 chars), got %d: %s", len(ha), ha)
	}
}

func TestHashAssignmentContentSensitive(t *testing.T) {
	base := map[agent.Key]string{
		k("namenode", 0, "dfs.checksum.type"): "CRC32C",
		k("datanode", 0, "dfs.checksum.type"): "CRC32C",
	}
	h0 := HashAssignment(base)

	// Changed value.
	v := map[agent.Key]string{
		k("namenode", 0, "dfs.checksum.type"): "CRC32",
		k("datanode", 0, "dfs.checksum.type"): "CRC32C",
	}
	// Changed node index.
	i := map[agent.Key]string{
		k("namenode", 0, "dfs.checksum.type"): "CRC32C",
		k("datanode", 1, "dfs.checksum.type"): "CRC32C",
	}
	// Changed node type.
	n := map[agent.Key]string{
		k("namenode", 0, "dfs.checksum.type"): "CRC32C",
		k("journal", 0, "dfs.checksum.type"):  "CRC32C",
	}
	// Extra entry.
	e := map[agent.Key]string{
		k("namenode", 0, "dfs.checksum.type"):      "CRC32C",
		k("datanode", 0, "dfs.checksum.type"):      "CRC32C",
		k("datanode", 0, "dfs.bytes-per-checksum"): "512",
	}
	for name, m := range map[string]map[agent.Key]string{
		"value": v, "index": i, "type": n, "extra": e,
	} {
		if HashAssignment(m) == h0 {
			t.Errorf("%s change did not change the digest", name)
		}
	}

	// Field-boundary confusion: the separator bytes must keep
	// ("ab","c") distinct from ("a","bc") in the param/value fields.
	x := map[agent.Key]string{k("nn", 0, "ab"): "c"}
	y := map[agent.Key]string{k("nn", 0, "a"): "bc"}
	if HashAssignment(x) == HashAssignment(y) {
		t.Fatal("param/value boundary shift produced a digest collision")
	}
}

func TestSeedForDistinctAndStable(t *testing.T) {
	seen := map[int64]string{}
	for _, base := range []int64{0, 7, 1 << 40} {
		for _, test := range []string{"TestWriteRead", "TestFsck"} {
			for _, hash := range []string{"aaaa", "bbbb"} {
				for round := 0; round < 4; round++ {
					s := SeedFor(base, test, hash, round)
					if s < 0 {
						t.Fatalf("seed must be non-negative (rng contract): %d", s)
					}
					id := fmt.Sprintf("%d/%s/%s/%d", base, test, hash, round)
					if prev, dup := seen[s]; dup {
						t.Fatalf("seed collision between %s and %s", prev, id)
					}
					seen[s] = id
					if s != SeedFor(base, test, hash, round) {
						t.Fatal("SeedFor is not deterministic")
					}
				}
			}
		}
	}
}

func TestNilCacheExecutes(t *testing.T) {
	var c *Cache
	ran := 0
	res, reused := c.Do(Key{App: "a"}, func() Result { ran++; return Result{Failed: true} })
	if !res.Failed || reused || ran != 1 {
		t.Fatalf("nil cache must execute: res=%+v reused=%v ran=%d", res, reused, ran)
	}
}

// stats is the cache's effectiveness as the registry counted it — the
// one copy there is.
type stats struct{ Hits, SharedHits, Coalesced, Misses int64 }

func statsOf(o *obs.Observer) stats {
	reg := o.Metrics
	return stats{
		Hits:       reg.CounterValue(obs.MCacheHits, "app", "app", "scope", "local"),
		SharedHits: reg.CounterValue(obs.MCacheHits, "app", "app", "scope", "shared"),
		Coalesced:  reg.CounterValue(obs.MCacheCoalesced, "app", "app"),
		Misses:     reg.CounterValue(obs.MCacheMisses, "app", "app"),
	}
}

func TestDoMemoizes(t *testing.T) {
	o := obs.New()
	c := NewCache("app", nil, o)
	key := Key{App: "app", Test: "T", Assign: "h", Seed: 42}
	ran := 0
	first, reused := c.Do(key, func() Result { ran++; return Result{Failed: true, Msg: "boom"} })
	if reused || ran != 1 {
		t.Fatalf("first Do must execute: reused=%v ran=%d", reused, ran)
	}
	second, reused := c.Do(key, func() Result { ran++; return Result{} })
	if !reused || ran != 1 {
		t.Fatalf("second Do must reuse: reused=%v ran=%d", reused, ran)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result differs: %+v vs %+v", first, second)
	}
	// A different key executes again.
	other := key
	other.Seed = 43
	if _, reused := c.Do(other, func() Result { ran++; return Result{} }); reused || ran != 2 {
		t.Fatalf("different key must execute: reused=%v ran=%d", reused, ran)
	}
	s := statsOf(o)
	if s.Hits != 1 || s.Misses != 2 || s.Coalesced != 0 || s.SharedHits != 0 {
		t.Fatalf("stats: %+v", s)
	}
	// What a hit saved is its item's to count, when the item completes.
	if n := o.Metrics.GaugeValue(obs.MCacheSaved); n != 0 {
		t.Fatalf("the cache counted %d saved executions itself", n)
	}
}

// TestSingleflightCoalesces drives many concurrent callers at one key
// (run under -race in CI): fn must execute exactly once, every caller
// must see the same result, and hits+coalesced must account for all the
// skipped callers.
func TestSingleflightCoalesces(t *testing.T) {
	o := obs.New()
	c := NewCache("app", nil, o)
	key := Key{App: "app", Test: "T", Assign: "h", Seed: 1}

	const callers = 32
	var ran atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]Result, callers)
	reuseds := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], reuseds[i] = c.Do(key, func() Result {
				ran.Add(1)
				<-release // hold the run open so later callers coalesce
				return Result{Failed: true, Msg: "once"}
			})
		}(i)
	}
	close(release)
	wg.Wait()

	if n := ran.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	executed := 0
	for i := range results {
		if !reflect.DeepEqual(results[i], Result{Failed: true, Msg: "once"}) {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if !reuseds[i] {
			executed++
		}
	}
	if executed != 1 {
		t.Fatalf("%d callers report executed, want 1", executed)
	}
	s := statsOf(o)
	if s.Misses != 1 || s.Hits+s.Coalesced != callers-1 {
		t.Fatalf("stats don't account for all callers: %+v", s)
	}
}

// mapBackend is a trivial Backend for interplay tests.
type mapBackend struct {
	mu   sync.Mutex
	m    map[Key]Result
	gets int
	puts int
}

func newMapBackend() *mapBackend { return &mapBackend{m: map[Key]Result{}} }

func (b *mapBackend) Get(k Key) (Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	r, ok := b.m[k]
	return r, ok
}

func (b *mapBackend) Put(k Key, r Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	b.m[k] = r
}

func TestBackendInterplay(t *testing.T) {
	be := newMapBackend()
	key := Key{App: "app", Test: "T", Assign: "h", Seed: 9}
	be.m[key] = Result{Msg: "from-backend"}

	o := obs.New()
	c := NewCache("app", be, o)
	res, reused := c.Do(key, func() Result { t.Fatal("must not execute on a backend hit"); return Result{} })
	if !reused || res.Msg != "from-backend" {
		t.Fatalf("backend hit not honoured: reused=%v res=%+v", reused, res)
	}
	// The hit is now local: a second Do must not ask the backend again.
	gets := be.gets
	if _, reused := c.Do(key, func() Result { return Result{} }); !reused {
		t.Fatal("second lookup should hit locally")
	}
	if be.gets != gets {
		t.Fatalf("local hit still queried the backend (%d -> %d gets)", gets, be.gets)
	}

	// A miss executes and publishes to the backend, so a *fresh* cache
	// sharing the backend reuses it — the cross-worker scenario.
	miss := Key{App: "app", Test: "T", Assign: "h2", Seed: 9}
	if _, reused := c.Do(miss, func() Result { return Result{Failed: true} }); reused {
		t.Fatal("unexpected reuse on a fresh key")
	}
	if be.puts != 1 {
		t.Fatalf("miss did not publish to the backend: %d puts", be.puts)
	}
	o2 := obs.New()
	c2 := NewCache("app", be, o2)
	res, reused = c2.Do(miss, func() Result { t.Fatal("second cache must reuse the published result"); return Result{} })
	if !reused || !res.Failed {
		t.Fatalf("cross-cache reuse failed: reused=%v res=%+v", reused, res)
	}
	if s := statsOf(o2); s.SharedHits != 1 {
		t.Fatalf("shared hit not counted: %+v", s)
	}
	s := statsOf(o)
	if s.SharedHits != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("first cache stats: %+v", s)
	}
}
