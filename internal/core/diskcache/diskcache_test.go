package diskcache

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"zebraconf/internal/core/memo"
)

func key(i int) memo.Key {
	return memo.Key{App: "minihdfs", Test: "TestWriteRead", Assign: fmt.Sprintf("digest-%04d", i), Seed: int64(i)}
}

func result(i int) memo.Result {
	return memo.Result{Failed: i%2 == 0, Msg: fmt.Sprintf("outcome %d", i)}
}

func open(t *testing.T, dir string, max int64, next memo.Backend) *Store {
	t.Helper()
	s, err := Open(dir, max, next, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFiles lists the store's committed entry files.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestRoundtripAndReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put(key(1), result(1))
	got, ok := s.Get(key(1))
	if !ok || !reflect.DeepEqual(got, result(1)) {
		t.Fatalf("Get after Put = %+v, %v; want %+v, true", got, ok, result(1))
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 write, 1 hit, 1 miss, 1 entry", st)
	}

	// Persistence is the whole point: a fresh store over the same
	// directory — a later campaign's process — serves the entry.
	s2 := open(t, dir, 0, nil)
	if got, ok := s2.Get(key(1)); !ok || !reflect.DeepEqual(got, result(1)) {
		t.Fatalf("reopened Get = %+v, %v; want %+v, true", got, ok, result(1))
	}
}

// TestCorruptEntriesMissAndEvict is the safety property: a truncated or
// garbage entry file must degrade to a miss — never a wrong verdict —
// and be deleted so it stops costing a read.
func TestCorruptEntriesMissAndEvict(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	for i, corruption := range [][]byte{
		[]byte(`{"key":{"app":"minihdfs","test":"TestWrite`), // truncated
		[]byte("\x00\xff garbage, not JSON at all\n"),        // garbage
	} {
		k := key(i)
		s.Put(k, result(i))
		path := filepath.Join(dir, entryName(k))
		if err := os.WriteFile(path, corruption, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, ok := s.Get(k); ok {
			t.Fatalf("corruption %d: served a verdict from a corrupt entry: %+v", i, res)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corruption %d: corrupt entry was not evicted (stat err = %v)", i, err)
		}
	}
	if st := s.Stats(); st.Corrupt != 2 {
		t.Fatalf("corrupt counter = %d, want 2 (stats %+v)", st.Corrupt, st)
	}
}

// TestKeyMismatchIsMiss covers the stored-key verification: an entry
// whose content does not match the requested key (file renamed, hash
// collision) must be a miss, not someone else's verdict, and is evicted.
// Each of the four key fields is checked on its own.
func TestKeyMismatchIsMiss(t *testing.T) {
	t.Parallel()
	stored := key(1)
	for field, other := range map[string]func(memo.Key) memo.Key{
		"App":    func(k memo.Key) memo.Key { k.App = "minihbase"; return k },
		"Test":   func(k memo.Key) memo.Key { k.Test = "TestWriteReadX"; return k },
		"Assign": func(k memo.Key) memo.Key { k.Assign = "digest-0002"; return k },
		"Seed":   func(k memo.Key) memo.Key { k.Seed = -k.Seed; return k },
	} {
		t.Run(field, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			s := open(t, dir, 0, nil)
			s.Put(stored, result(1))
			// Masquerade the stored entry's file under the other key's name.
			asked := other(stored)
			path := filepath.Join(dir, entryName(asked))
			if err := os.Rename(filepath.Join(dir, entryName(stored)), path); err != nil {
				t.Fatal(err)
			}
			if res, ok := s.Get(asked); ok {
				t.Fatalf("served %+v's verdict for %+v: %+v", stored, asked, res)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("mismatched entry was not evicted (stat err = %v)", err)
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v; want 1 corrupt, 1 miss", st)
			}
		})
	}
}

// TestEntryNameIsStable pins file names to the bytes earlier builds
// wrote, so an existing cache directory stays warm across a change to
// how the name is computed.
func TestEntryNameIsStable(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		k    memo.Key
		want string
	}{
		{memo.Key{App: "minihdfs", Test: "TestWriteRead", Assign: "0123456789abcdef0123456789abcdef", Seed: 7},
			"a182fe7a17edb9c3eed96b4bee6396b0.json"},
		{memo.Key{App: "miniflink", Test: "TestÜberprüfung/日本", Assign: "fedcba9876543210fedcba9876543210", Seed: 1},
			"c25baca6186be8a69eacbd606032e50a.json"},
		{memo.Key{App: "miniyarn", Test: "TestNodeHeartbeat", Assign: "00000000000000000000000000000000", Seed: -42},
			"8c1cb8ea16bb4996793c92da1f3d9096.json"},
	} {
		if got := entryName(c.k); got != c.want {
			t.Errorf("entryName(%+v) = %s, want %s", c.k, got, c.want)
		}
	}
}

// TestHandWrittenEntryHits: an entry not in the exact form write
// produces — indented, fields reordered — is still valid JSON holding
// the key, and json.Unmarshal serves it.
func TestHandWrittenEntryHits(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	k := key(3)
	entry := `{
  "created_unix": 1700000000,
  "result": {"reads": ["a.b", "c.d"], "msg": "outcome 3", "failed": true},
  "key": {"seed": 3, "assign": "digest-0003", "test": "TestWriteRead", "app": "minihdfs"}
}
`
	if err := os.WriteFile(filepath.Join(dir, entryName(k)), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	want := memo.Result{Failed: true, Msg: "outcome 3", Reads: []string{"a.b", "c.d"}}
	if got, ok := s.Get(k); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, want)
	}
	if st := s.Stats(); st.Hits != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v; want 1 hit, 0 corrupt", st)
	}
}

// TestEscapedValuesRoundTrip: strings that json.Marshal escapes, and
// non-ASCII ones, come back from a Put as they went in, on both decode
// paths and on a repeated hit.
func TestEscapedValuesRoundTrip(t *testing.T) {
	t.Parallel()
	s := open(t, t.TempDir(), 0, nil)
	for _, c := range []struct {
		k   memo.Key
		res memo.Result
	}{
		{memo.Key{App: "minihdfs", Test: "TestFsck", Assign: "digest\t<1>", Seed: 4},
			memo.Result{TimedOut: true, Msg: "quote \" <tag> & amp\nnext line\u2028", Reads: []string{"a.read", `escaped"read<&>`}}},
		{memo.Key{App: "miniflink", Test: "TestÜberprüfung/日本", Assign: "digest", Seed: -9},
			memo.Result{Failed: true, Msg: "é", Reads: []string{"a.read", "ünïcode.read"}}},
		{memo.Key{App: "miniyarn", Test: "TestNodeHeartbeat", Assign: "digest", Seed: math.MinInt64},
			memo.Result{Msg: "plain", Reads: []string{"a.read", "b.read"}}},
	} {
		s.Put(c.k, c.res)
		for i := 0; i < 2; i++ {
			if got, ok := s.Get(c.k); !ok || !reflect.DeepEqual(got, c.res) {
				t.Fatalf("Get %d of %+v = %+v, %v; want %+v, true", i, c.k, got, ok, c.res)
			}
		}
	}
}

// sysReads is whether this system reads and stats entries with system
// calls (sys_unix.go). Elsewhere Get and Open go through package os
// (sys_other.go), which allocates an *os.File per hit and a FileInfo per
// entry, so the allocation guards allow for those.
var sysReads = runtime.GOOS == "linux" || runtime.GOOS == "darwin"

// TestGetHitAllocs guards the hit path: a hit allocates the entry's path,
// that path's C string and the returned read set, not an *os.File, a read
// buffer, a decoder or a string per read.
func TestGetHitAllocs(t *testing.T) {
	s := open(t, t.TempDir(), 0, nil)
	s.Put(benchKey, benchResult)
	want := 3.0
	if !sysReads {
		want = 8
	}
	if allocs := testing.AllocsPerRun(50, func() { sinkResult, _ = s.Get(benchKey) }); allocs > want {
		t.Fatalf("a hit made %.0f allocations, want at most %.0f", allocs, want)
	}
}

// FuzzDecodeEntry holds Get's decode to encoding/json: on any bytes and
// any key, it hits exactly when json.Unmarshal into a fileEntry gives the
// requested key, and then returns the Result and Created json gives.
// (TestGetHitAllocs holds write's own bytes to the fast path.)
func FuzzDecodeEntry(f *testing.F) {
	entries := []fileEntry{
		{Key: memo.Key{App: "minihdfs", Test: "TestWriteRead", Assign: "0123456789abcdef", Seed: 7}, Created: 1700000000},
		{Key: memo.Key{App: "minihdfs", Test: "TestFsck", Assign: "a", Seed: 0},
			Result: memo.Result{Failed: true}, Created: 1},
		{Key: memo.Key{App: "miniyarn", Test: "TestNodeHeartbeat", Assign: "b", Seed: -42},
			Result: memo.Result{TimedOut: true, Msg: "timed out"}, Created: -5},
		{Key: memo.Key{App: "minimr", Test: "TestShuffle", Assign: "c", Seed: math.MaxInt64},
			Result: memo.Result{Failed: true, TimedOut: true, Msg: "m", Reads: []string{"x.y"}}, Created: math.MaxInt64},
		{Key: memo.Key{App: "minimr", Test: "TestShuffle", Assign: "", Seed: math.MinInt64},
			Result: memo.Result{Reads: []string{"mapreduce.a", "mapreduce.b", "mapreduce.a"}}, Created: math.MinInt64},
		{Key: benchKey, Result: benchResult, Created: 1792258379},
		{Key: memo.Key{App: "miniflink", Test: "TestJobSubmission", Assign: "d", Seed: 1},
			Result: memo.Result{Failed: true, Msg: "say \"no\" to <b> & \n next", Reads: []string{"r"}}, Created: 9},
		{Key: memo.Key{App: "miniflink", Test: "TestÜberprüfung/日本", Assign: "e", Seed: 2},
			Result: memo.Result{Msg: "ok"}, Created: 10},
	}
	for _, fe := range entries {
		data, err := json.Marshal(fe)
		if err != nil {
			f.Fatal(err)
		}
		data = append(data, '\n')
		k := fe.Key
		f.Add(data, k.App, k.Test, k.Assign, k.Seed)
		f.Add(data[:len(data)/2], k.App, k.Test, k.Assign, k.Seed) // truncated
		f.Add(data, k.App, k.Test, k.Assign, k.Seed+1)             // another key
	}
	// Hand-written entries json.Unmarshal reads but write never produces,
	// or json.Unmarshal refuses, for the key {a t x seed}.
	for _, c := range []struct {
		data string
		seed int64
	}{
		{`{"key":{"app":"a","test":"t","assign":"x","seed":1},"result":{},"created_unix":9223372036854775808}`, 1},
		{`{"key":{"app":"a","test":"t","assign":"x","seed":-9223372036854775809},"result":{},"created_unix":1}`, math.MaxInt64},
		{`{"key":{"app":"a","test":"t","assign":"x","seed":-0},"result":{},"created_unix":1}`, 0},
		{`{"key":{"app":"a","test":"t","assign":"x","seed":1},"result":{"msg":"a\u003cb"},"created_unix":1}`, 1},
		{`{"key":{"app":"a","test":"t","assign":"x","seed":1}, "result":{"failed":false},"created_unix":1}`, 1},
	} {
		f.Add([]byte(c.data+"\n"), "a", "t", "x", c.seed)
	}
	// A key holding invalid UTF-8, next to the entry write produced for
	// it: json reads its app back as U+FFFD, so the entry serves that key,
	// not the one written.
	dir := f.TempDir()
	st, err := Open(dir, 0, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	bad := memo.Key{App: "\xff", Test: "TestWriteRead", Assign: "f", Seed: 3}
	st.Put(bad, memo.Result{Msg: "m", Reads: []string{"r"}})
	data, err := os.ReadFile(filepath.Join(dir, entryName(bad)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, bad.App, bad.Test, bad.Assign, bad.Seed)
	f.Add(data, "\ufffd", bad.Test, bad.Assign, bad.Seed)

	f.Fuzz(func(t *testing.T, data []byte, app, test, assign string, seed int64) {
		k := memo.Key{App: app, Test: test, Assign: assign, Seed: seed}
		res, created, ok := st.decode(data, k)
		var fe fileEntry
		jsonHit := json.Unmarshal(data, &fe) == nil && fe.Key == k
		switch {
		case ok != jsonHit:
			t.Fatalf("decode hit = %v, json hit = %v: %q", ok, jsonHit, data)
		case ok && (!reflect.DeepEqual(res, fe.Result) || created != fe.Created):
			t.Fatalf("decoded %+v @%d, json %+v @%d: %q", res, created, fe.Result, fe.Created, data)
		}
	})
}

// TestConcurrentHits: Get runs on every slot at once, and its hits share
// the store's decode states and their interners; each still returns its
// own entry's result.
func TestConcurrentHits(t *testing.T) {
	t.Parallel()
	s := open(t, t.TempDir(), 0, nil)
	const n = 8
	res := func(i int) memo.Result {
		return memo.Result{Msg: result(i).Msg, Reads: []string{"shared.read", fmt.Sprintf("read.%d", i)}}
	}
	for i := 0; i < n; i++ {
		s.Put(key(i), res(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				i := (g + j) % n
				if got, ok := s.Get(key(i)); !ok || !reflect.DeepEqual(got, res(i)) {
					t.Errorf("Get(%+v) = %+v, %v; want %+v, true", key(i), got, ok, res(i))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Hits != 4*50 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v; want 200 hits, no miss or corrupt entry", st)
	}
}

func TestEvictionUnderSizeCap(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Size one entry, then cap the store at ~4 of them.
	probe := open(t, t.TempDir(), 0, nil)
	probe.Put(key(0), result(0))
	entrySize := probe.Stats().Bytes
	if entrySize <= 0 {
		t.Fatal("could not size a probe entry")
	}
	cap := 4 * entrySize

	s := open(t, dir, cap, nil)
	const n = 10
	for i := 0; i < n; i++ {
		s.Put(key(i), result(i))
	}
	st := s.Stats()
	if st.Bytes > cap {
		t.Fatalf("store size %d exceeds cap %d", st.Bytes, cap)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite writing past the cap")
	}
	if st.Entries+int(st.Evictions) != n {
		t.Fatalf("entries %d + evictions %d != %d writes", st.Entries, st.Evictions, n)
	}
	// LRU: the oldest (untouched) entries go first, the newest survives.
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Get(key(n - 1)); !ok {
		t.Fatal("newest entry was evicted")
	}
	if files := entryFiles(t, dir); len(files) != st.Entries {
		t.Fatalf("%d files on disk, index says %d entries", len(files), st.Entries)
	}
}

// memBackend is a map-backed next tier for hierarchy tests.
type memBackend struct {
	m    map[memo.Key]memo.Result
	puts int
}

func (b *memBackend) Get(k memo.Key) (memo.Result, bool) {
	res, ok := b.m[k]
	return res, ok
}

func (b *memBackend) Put(k memo.Key, res memo.Result) {
	b.puts++
	b.m[k] = res
}

// TestNextTierWriteThrough: a disk miss consults next, and next's hit is
// persisted locally so the round trip happens once.
func TestNextTierWriteThrough(t *testing.T) {
	t.Parallel()
	next := &memBackend{m: map[memo.Key]memo.Result{key(7): result(7)}}
	s := open(t, t.TempDir(), 0, next)
	if got, ok := s.Get(key(7)); !ok || !reflect.DeepEqual(got, result(7)) {
		t.Fatalf("Get via next = %+v, %v; want %+v, true", got, ok, result(7))
	}
	if st := s.Stats(); st.Writes != 1 {
		t.Fatalf("next's hit was not written through (stats %+v)", st)
	}
	if got, ok := s.Get(key(7)); !ok || !reflect.DeepEqual(got, result(7)) {
		t.Fatal("written-through entry not served locally")
	}
	// Put forwards so the tier behind learns results too.
	s.Put(key(8), result(8))
	if next.puts != 1 {
		t.Fatalf("Put forwarded %d times to next, want 1", next.puts)
	}
	if _, ok := next.Get(key(8)); !ok {
		t.Fatal("Put did not reach the next tier")
	}
}

// TestOpenSweepsOnlyOldTempFiles: a tmp- file is a crashed writer's leftover
// only once it has aged. A young one belongs to another process writing the
// same directory (two workers given one -disk-cache), and sweeping it made
// that process's rename fail and its entry vanish.
func TestOpenSweepsOnlyOldTempFiles(t *testing.T) {
	dir := t.TempDir()
	live, stale := filepath.Join(dir, "tmp-live"), filepath.Join(dir, "tmp-stale")
	for _, name := range []string{live, stale} {
		if err := os.WriteFile(name, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("Open swept a temp file a live writer may still rename: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("Open left an hour-old temp file behind (stat: %v)", err)
	}
}

var (
	sinkResult memo.Result

	// benchKey and benchResult are a miniflink entry with a typical
	// 11-parameter read set.
	benchKey    = memo.Key{App: "miniflink", Test: "TestCheckpointBarrier", Assign: "1a603c189f0bd3924076e9675edb8e09", Seed: 517703419855078662}
	benchResult = memo.Result{Reads: []string{"akka.ssl.enabled", "jobmanager.memory.heap.size", "jobmanager.rpc.address",
		"pipeline.object-reuse", "restart-strategy", "state.backend", "taskmanager.data.ssl.enabled",
		"taskmanager.debug.memory.log", "taskmanager.memory.network.fraction", "taskmanager.network.numberOfBuffers",
		"taskmanager.numberOfTaskSlots"}}
)

// BenchmarkGetHit prices one disk-cache hit on a stored entry.
func BenchmarkGetHit(b *testing.B) {
	s, err := Open(b.TempDir(), 0, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.Put(benchKey, benchResult)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkResult, _ = s.Get(benchKey); sinkResult.Reads == nil {
			b.Fatal("stored entry missed")
		}
	}
}

// BenchmarkOpen prices reopening a 5,000-entry store.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, 0, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5_000; i++ {
		k := benchKey
		k.Assign = fmt.Sprintf("%032x", i)
		s.Put(k, benchResult)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dir, 0, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReopenIndexesLikeBefore: a reopened store indexes every entry file
// and nothing else, seeds its LRU order from mtimes, and evicts an over-cap
// store oldest first. A directory that looks like an entry, a foreign file
// and a young temp file are left alone; an old temp file is swept.
func TestReopenIndexesLikeBefore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	const n = 6
	now := time.Now()
	sizes := make([]int64, n)
	for i := 0; i < n; i++ {
		s.Put(key(i), result(i))
		path := filepath.Join(dir, entryName(key(i)))
		// Entry i is n-i hours old: key(0) is the oldest, whatever the
		// order of the hashed names.
		mtime := now.Add(-time.Duration(n-i) * time.Hour)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = info.Size()
	}
	if err := os.Mkdir(filepath.Join(dir, "x.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"notes.txt", "tmp-young", "tmp-old"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := now.Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "tmp-old"), old, old); err != nil {
		t.Fatal(err)
	}

	// A cap that holds exactly the three newest entries.
	const keep = 3
	var capBytes int64
	for _, size := range sizes[n-keep:] {
		capBytes += size
	}
	r := open(t, dir, capBytes, nil)
	st := r.Stats()
	if st.Entries != keep || st.Bytes != capBytes || st.Evictions != n-keep {
		t.Fatalf("reopened stats = %+v; want %d entries, %d bytes, %d evictions", st, keep, capBytes, n-keep)
	}
	for i := 0; i < n; i++ {
		_, err := os.Stat(filepath.Join(dir, entryName(key(i))))
		if gone, want := os.IsNotExist(err), i < n-keep; gone != want {
			t.Errorf("entry %d (%d h old): evicted = %v, want %v (stat: %v)", i, n-i, gone, want, err)
		}
	}
	for _, f := range []string{"x.json", "notes.txt", "tmp-young"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("Open removed %s: %v", f, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-old")); !os.IsNotExist(err) {
		t.Errorf("Open left an hour-old temp file behind (stat: %v)", err)
	}
	for i := n - keep; i < n; i++ {
		if got, ok := r.Get(key(i)); !ok || !reflect.DeepEqual(got, result(i)) {
			t.Errorf("surviving entry %d: Get = %+v, %v; want %+v, true", i, got, ok, result(i))
		}
	}
}

// TestOpenAllocs guards Open's index: per entry it allocates the listed
// name, the path it stats and that path's C string, not a FileInfo or a
// pointer per index row.
func TestOpenAllocs(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	const n = 1_000
	for i := 0; i < n; i++ {
		s.Put(key(i), result(i))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Open(dir, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	want := 4.0
	if !sysReads {
		want = 5
	}
	if perEntry := allocs / n; perEntry > want {
		t.Fatalf("Open made %.0f allocations over %d entries (%.2f each), want at most %.0f each", allocs, n, perEntry, want)
	}
}
