package diskcache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	// directory — a new server process — serves the entry.
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
// collision) must be a miss, not someone else's verdict.
func TestKeyMismatchIsMiss(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	s.Put(key(1), result(1))
	// Masquerade entry 1's file under entry 2's name.
	if err := os.Rename(filepath.Join(dir, entryName(key(1))), filepath.Join(dir, entryName(key(2)))); err != nil {
		t.Fatal(err)
	}
	if res, ok := s.Get(key(2)); ok {
		t.Fatalf("served key(1)'s verdict for key(2): %+v", res)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
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
	// Put forwards upward so the coordinator tier learns results too.
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
