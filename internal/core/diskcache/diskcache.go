// Package diskcache is ZebraConf's persistent execution store: a
// content-addressed, disk-backed memo.Backend shared *across*
// campaigns. The in-process memo cache (PR 3) dies with the process; this
// tier is a build-cache for trials — a repeat campaign on an unchanged
// app finds nearly every canonically-seeded execution already on disk
// and is nearly free.
//
// Layout: one JSON file per entry in a flat directory, named by the
// SHA-256 of the memo key, written via temp-file + atomic rename so a
// reader never observes a torn entry. Every read re-verifies that the
// stored key equals the requested one (a hash collision or corrupted
// file must degrade to a miss, never a wrong verdict); entries that
// fail to parse or verify are deleted on sight. The store is size
// capped with LRU eviction ordered by last-hit time.
//
// A hit is three system calls and one decode: on Linux and Darwin the
// file is opened, read into a pooled buffer and closed on a bare
// descriptor, with no *os.File (sys_unix.go). Entries are written by
// canonjson (json.Marshal's bytes), so the head up to the result is
// compared as bytes with the one write produces for the requested key,
// allocating nothing on a mismatch, and canonjson decodes the rest; any
// other bytes go through encoding/json, which decides as it always has. A
// hit allocates the entry's path, that path's C string and the read set.
//
// Open indexes the directory by name: it lists the names, stats each
// entry file into one stack buffer, sorts the (name, size, mtime) rows by
// mtime to seed the LRU order and, over the cap, evicts from the front of
// that list. The index is a map of values sized to the entry count.
//
// Open takes an optional next Backend, consulted on a disk miss and
// written through on its hit. No caller outside the tests passes one:
// the tier behind the disk went with the coordinator cache.
package diskcache

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/obs"
)

// DefaultMaxBytes caps the store at 256 MiB when no cap is given —
// roughly two orders of magnitude above a full five-app campaign's
// entry volume, so eviction only matters for a directory shared by many
// runs.
const DefaultMaxBytes = 256 << 20

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Writes    int64 `json:"writes"`
	Evictions int64 `json:"evictions"`
	Corrupt   int64 `json:"corrupt"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// Store implements memo.Backend over a directory of entry files.
// Safe for concurrent use by multiple goroutines; concurrent *processes*
// sharing a directory are safe too (atomic renames, re-verified reads),
// though each process evicts against its own view of the size.
type Store struct {
	dir  string
	max  int64
	next memo.Backend
	o    *obs.Observer

	hits, misses, writes, evictions, corrupt atomic.Int64

	dec []decodeState // one per processor, so hits decode side by side

	mu      sync.Mutex
	entries map[string]entry // file name -> index entry
	total   int64            // sum of entry sizes
	clock   int64            // logical LRU clock, bumped per touch
}

type entry struct {
	size  int64
	atime int64 // logical last-touch time (clock value)
}

// fileEntry is the on-disk record. The key is stored alongside the
// result precisely so Get can verify it: the file name is a hash, and
// trusting a hash alone would convert corruption into wrong verdicts.
type fileEntry struct {
	Key     memo.Key    `json:"key"`
	Result  memo.Result `json:"result"`
	Created int64       `json:"created_unix"`
}

// Open loads (or creates) a store at dir. maxBytes <= 0 selects
// DefaultMaxBytes. next, when non-nil, is consulted on disk misses and
// written through on its hits. o may be nil.
func Open(dir string, maxBytes int64, next memo.Backend, o *obs.Observer) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	d, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	type aged struct {
		name  string
		size  int64
		mtime int64 // Unix nanoseconds
	}
	found := make([]aged, 0, len(names))
	sweepBefore := time.Now().Add(-time.Minute).UnixNano()
	for _, name := range names {
		tmp := strings.HasPrefix(name, "tmp-")
		if !tmp && !strings.HasSuffix(name, ".json") {
			continue
		}
		path := dir + string(filepath.Separator) + name
		size, mtime, isDir, err := lstat(path)
		if err != nil {
			continue
		}
		if tmp {
			// Leftover from a crashed writer; never renamed, never valid.
			// A young one is another process sharing the directory, between
			// CreateTemp and its rename: removing that loses its entry.
			if mtime < sweepBefore {
				os.Remove(path)
			}
			continue
		}
		if isDir {
			continue
		}
		found = append(found, aged{name, size, mtime})
	}
	// Seed the LRU order from mtimes so a reopened store evicts oldest
	// entries first instead of directory order; the list is that order,
	// so eviction takes its front.
	slices.SortFunc(found, func(a, b aged) int {
		if c := cmp.Compare(a.mtime, b.mtime); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	s := &Store{dir: dir, max: maxBytes, next: next, o: o, dec: make([]decodeState, runtime.GOMAXPROCS(0))}
	for _, f := range found {
		s.total += f.size
	}
	for len(found) > 0 && s.total > s.max {
		s.evictFile(found[0].name, found[0].size)
		found = found[1:]
	}
	s.entries = make(map[string]entry, len(found))
	for _, f := range found {
		s.clock++
		s.entries[f.name] = entry{size: f.size, atime: s.clock}
	}
	s.gaugesLocked()
	return s, nil
}

// entryName derives the file name for a key: SHA-256 over the canonical
// key fields. Assign is already a collision-resistant digest, but
// hashing the full key keeps names fixed-length and filesystem-safe for
// arbitrary app/test names.
func entryName(k memo.Key) string {
	name := entryNameOf(k)
	return string(name[:])
}

// entryNameLen is the length of a file name: 32 hex digits and ".json".
const entryNameLen = 2*16 + len(".json")

// entryNameOf is entryName without the string: it hashes App, NUL, Test,
// NUL, Assign, NUL and the decimal Seed, laid out in one stack buffer,
// and hex-encodes the first half of the sum.
func entryNameOf(k memo.Key) [entryNameLen]byte {
	var stack [256]byte
	b := append(stack[:0], k.App...)
	b = append(b, 0)
	b = append(b, k.Test...)
	b = append(b, 0)
	b = append(b, k.Assign...)
	b = append(b, 0)
	b = strconv.AppendInt(b, k.Seed, 10)
	sum := sha256.Sum256(b)
	var name [entryNameLen]byte
	hex.Encode(name[:], sum[:16])
	copy(name[2*16:], ".json")
	return name
}

// readBufs holds the buffers Get reads entry files into; a decoded hit
// keeps no byte of one.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledRead is the largest read buffer handed back to readBufs, so
// one outsized entry does not stay pinned behind every later hit.
const maxPooledRead = 64 << 10

// Get implements memo.Backend. Every failure mode — missing file,
// unparseable JSON, stored key not matching the requested one — is a
// miss; corrupt files are additionally deleted so they stop costing a
// read. A miss falls through to next (when configured) and its hit is
// written through to disk.
func (s *Store) Get(k memo.Key) (memo.Result, bool) {
	nb := entryNameOf(k)
	path := s.dir + string(filepath.Separator) + string(nb[:])
	name := path[len(path)-entryNameLen:]
	buf := readBufs.Get().(*[]byte)
	data, err := readFile(path, (*buf)[:0])
	if err == nil {
		res, created, ok := s.decode(data, k)
		size := int64(len(data))
		releaseBuf(buf, data)
		if ok {
			s.touch(name, size)
			s.hits.Add(1)
			s.o.CounterAdd(obs.MDiskCacheHits, 1)
			if age := time.Since(time.Unix(created, 0)).Seconds(); created > 0 && age >= 0 {
				s.o.Observe(obs.MDiskCacheHitAge, age)
			}
			return res, true
		}
		// Truncated, garbage, or a key mismatch: evict the file and
		// fall through to a miss. Never serve a result we can't verify.
		s.removeEntry(name)
		s.corrupt.Add(1)
		s.o.CounterAdd(obs.MDiskCacheCorrupt, 1)
	} else {
		releaseBuf(buf, data)
	}
	s.misses.Add(1)
	s.o.CounterAdd(obs.MDiskCacheMisses, 1)
	if s.next != nil {
		if res, ok := s.next.Get(k); ok {
			s.write(k, res)
			return res, true
		}
	}
	return memo.Result{}, false
}

// decodeState is what Get's fast path works in, owned by the store so
// that nothing escapes per hit: the requested key, the head of its entry
// as write lays it out, the decoded values, and the interner their
// strings come from (an Interner has one reader at a time).
type decodeState struct {
	mu      sync.Mutex
	key     memo.Key
	head    []byte
	res     memo.Result
	created int64
	in      canonjson.Interner
}

// createdField joins an entry's result to its creation time.
const createdField = `},"created_unix":`

// decode reports whether data, an entry file's bytes, holds the key k, and
// if so the result and creation time it stores: what json.Unmarshal into a
// fileEntry gives. In the form write produces, the head up to the result
// is compared as bytes with the head write produces for k, and the rest is
// decoded by canonjson. Any other bytes go to json.Unmarshal.
func (s *Store) decode(data []byte, k memo.Key) (memo.Result, int64, bool) {
	d := s.lockDecodeState()
	d.key = k
	head, err := canonjson.Append(append(d.head[:0], `{"key":`...), &d.key)
	d.head = append(head, `,"result":`...)
	// canonjson writes invalid UTF-8 as \ufffd, which json reads back as
	// U+FFFD: the head of such a key is the head of another one.
	ok := false
	if err == nil && utf8.ValidString(k.App) && utf8.ValidString(k.Test) && utf8.ValidString(k.Assign) &&
		bytes.HasPrefix(data, d.head) && bytes.HasSuffix(data, []byte("}\n")) {
		if i := bytes.LastIndex(data, []byte(createdField)); i >= len(d.head) {
			ok = canonjson.Fast(data[len(d.head):i+1], &d.res, &d.in) &&
				canonjson.Fast(data[i+len(createdField):len(data)-2], &d.created, nil)
		}
	}
	res, created := d.res, d.created
	d.res, d.created = memo.Result{}, 0
	d.mu.Unlock()
	if ok {
		return res, created, true
	}
	var fe fileEntry
	if json.Unmarshal(data, &fe) == nil && fe.Key == k {
		return fe.Result, fe.Created, true
	}
	return memo.Result{}, 0, false
}

// lockDecodeState locks a free decode state, or waits for the first one.
func (s *Store) lockDecodeState() *decodeState {
	for i := range s.dec {
		if s.dec[i].mu.TryLock() {
			return &s.dec[i]
		}
	}
	s.dec[0].mu.Lock()
	return &s.dec[0]
}

// releaseBuf hands a read buffer, possibly grown into data, back to
// readBufs.
func releaseBuf(buf *[]byte, data []byte) {
	if cap(data) <= maxPooledRead {
		*buf = data[:0]
		readBufs.Put(buf)
	}
}

// Put implements memo.Backend: persist locally, then forward so the tier
// behind, when there is one, learns the result too.
func (s *Store) Put(k memo.Key, res memo.Result) {
	s.write(k, res)
	if s.next != nil {
		s.next.Put(k, res)
	}
}

// write persists one entry via temp file + atomic rename and applies
// LRU eviction under the size cap. Write failures are swallowed: the
// disk tier degrades to a smaller (or empty) cache, never an error.
func (s *Store) write(k memo.Key, res memo.Result) {
	name := entryName(k)
	s.mu.Lock()
	_, exists := s.entries[name]
	s.mu.Unlock()
	if exists {
		// Entries are immutable (seeded-deterministic executions), so a
		// rewrite could only produce the same bytes.
		return
	}
	data, err := canonjson.Append(make([]byte, 0, 1024), &fileEntry{Key: k, Result: res, Created: time.Now().Unix()})
	if err != nil {
		return
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.writes.Add(1)
	s.o.CounterAdd(obs.MDiskCacheWrites, 1)
	s.mu.Lock()
	if _, dup := s.entries[name]; !dup {
		s.clock++
		s.entries[name] = entry{size: int64(len(data)), atime: s.clock}
		s.total += int64(len(data))
	}
	s.evictLocked(name)
	s.gaugesLocked()
	s.mu.Unlock()
}

// evictLocked drops least-recently-hit entries until the store fits the
// cap. keep (the just-written entry, when set) is never evicted: a cap
// smaller than one entry should hold that entry, not thrash.
func (s *Store) evictLocked(keep string) {
	for s.total > s.max {
		victim, oldest := "", int64(0)
		for name, e := range s.entries {
			if name == keep {
				continue
			}
			if victim == "" || e.atime < oldest {
				victim, oldest = name, e.atime
			}
		}
		if victim == "" {
			return
		}
		s.evictFile(victim, s.entries[victim].size)
		delete(s.entries, victim)
	}
}

// evictFile removes one evicted entry's file and its bytes from the total.
func (s *Store) evictFile(name string, size int64) {
	s.total -= size
	os.Remove(filepath.Join(s.dir, name))
	s.evictions.Add(1)
	s.o.CounterAdd(obs.MDiskCacheEvictions, 1)
}

// touch refreshes an entry's LRU position after a hit, adopting it into
// the index if another process (or a pre-Open writer) created it.
func (s *Store) touch(name string, size int64) {
	s.mu.Lock()
	s.clock++
	if e, ok := s.entries[name]; ok {
		e.atime = s.clock
		s.entries[name] = e
	} else {
		s.entries[name] = entry{size: size, atime: s.clock}
		s.total += size
		s.evictLocked(name)
	}
	s.gaugesLocked()
	s.mu.Unlock()
}

// removeEntry deletes a corrupt entry's file and index row.
func (s *Store) removeEntry(name string) {
	os.Remove(filepath.Join(s.dir, name))
	s.mu.Lock()
	if e, ok := s.entries[name]; ok {
		s.total -= e.size
		delete(s.entries, name)
	}
	s.gaugesLocked()
	s.mu.Unlock()
}

func (s *Store) gaugesLocked() {
	s.o.GaugeSet(obs.MDiskCacheBytes, s.total)
	s.o.GaugeSet(obs.MDiskCacheEntries, int64(len(s.entries)))
}

// Stats snapshots the store's counters and size.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n, b := len(s.entries), s.total
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
		Entries:   n,
		Bytes:     b,
	}
}
