package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"zebraconf/internal/core/agent"
)

// referenceHash is HashAssignment as it was first written: sort.Slice over
// the keys, then six writes per entry through the hash.Hash interface.
// Digests are persisted disk-cache keys and seed inputs, so the current
// implementation must produce exactly these bytes.
func referenceHash(assign map[agent.Key]string) string {
	keys := make([]agent.Key, 0, len(assign))
	for k := range assign {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.NodeType != b.NodeType {
			return a.NodeType < b.NodeType
		}
		if a.NodeIndex != b.NodeIndex {
			return a.NodeIndex < b.NodeIndex
		}
		return a.Param < b.Param
	})
	h := sha256.New()
	var idx [8]byte
	for _, k := range keys {
		h.Write([]byte(k.NodeType))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(idx[:], uint64(k.NodeIndex))
		h.Write(idx[:])
		h.Write([]byte(k.Param))
		h.Write([]byte{0})
		h.Write([]byte(assign[k]))
		h.Write([]byte{0})
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// sizedAssign is a homogeneous-arm-shaped map of n entries over a few node
// types, the shape the runner digests on every canonical trial.
func sizedAssign(n int) map[agent.Key]string {
	types := []string{"DataNode", "NameNode", "JournalNode", agent.UnitTestEntity}
	m := make(map[agent.Key]string, n)
	for i := 0; i < n; i++ {
		m[agent.Key{NodeType: types[i%len(types)], NodeIndex: i / len(types), Param: fmt.Sprintf("dfs.param.%d", i%7)}] = fmt.Sprintf("v%d", i%3)
	}
	return m
}

type goldenMap struct {
	name string
	m    map[agent.Key]string
}

func goldenMaps() []goldenMap {
	return []goldenMap{
		{"empty", map[agent.Key]string{}},
		{"unit-test entity", map[agent.Key]string{
			k(agent.UnitTestEntity, 0, "dfs.checksum.type"): "CRC32C",
			k("DataNode", 1, "dfs.checksum.type"):           "CRC32",
		}},
		{"negative index", map[agent.Key]string{
			k("NameNode", -1, "dfs.replication"): "3",
			k("NameNode", 0, "dfs.replication"):  "1",
		}},
		{"non-ascii", map[agent.Key]string{
			k("Knoten", 0, "größe.max"): "über-µ",
			k("节点", 2, "配置"):            "值",
		}},
		{"13 entries", sizedAssign(13)},
		{"150 entries", sizedAssign(150)},
	}
}

// TestHashAssignmentGolden pins the digest bytes: these values were
// computed by the original implementation (referenceHash), and every disk
// cache and canonical seed written so far depends on them.
func TestHashAssignmentGolden(t *testing.T) {
	want := map[string]string{
		"empty":            "e3b0c44298fc1c149afbf4c8996fb924",
		"unit-test entity": "b538bd5470e3cdf08342b8bb8684d65a",
		"negative index":   "bff0c66d7fc3b5666a3920ff00c00a94",
		"non-ascii":        "393ddcfaa603b39ae90d9430d30877dc",
		"13 entries":       "0aeb52d587089308d61cee996b9dee74",
		"150 entries":      "53dadc7acbcac16403aaca0432de16e1",
	}
	for _, g := range goldenMaps() {
		if got := HashAssignment(g.m); got != want[g.name] {
			t.Errorf("%s: HashAssignment = %s, want %s", g.name, got, want[g.name])
		}
		if got := referenceHash(g.m); got != want[g.name] {
			t.Errorf("%s: referenceHash = %s, want %s", g.name, got, want[g.name])
		}
	}
}

// TestHashAssignmentMatchesReference compares the two implementations over
// random maps of 0–300 entries, across the stack/heap size boundaries.
func TestHashAssignmentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []string{"DataNode", "NameNode", "ä", "", agent.UnitTestEntity}
	str := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(301)
		if iter%5 == 0 {
			n = rng.Intn(2*smallAssign + 1)
		}
		m := make(map[agent.Key]string, n)
		for len(m) < n {
			key := agent.Key{NodeType: types[rng.Intn(len(types))], NodeIndex: rng.Intn(9) - 2, Param: str(40)}
			m[key] = str(200)
		}
		if got, want := HashAssignment(m), referenceHash(m); got != want {
			t.Fatalf("iteration %d (%d entries): HashAssignment = %s, reference = %s", iter, n, got, want)
		}
	}
}

// A map allocates only the digest string: a per-entry conversion or a
// heap key slice or buffer creeping back in shows here. Up to smallAssign
// ordinary entries both live on the stack; 150 entries take the key slice
// and the buffer from the pool, which a -race build drains at random.
func TestHashAssignmentAllocs(t *testing.T) {
	for _, n := range []int{0, 1, 13, smallAssign, 150} {
		if n > smallAssign && raceEnabled {
			continue
		}
		m := sizedAssign(n)
		if allocs := testing.AllocsPerRun(50, func() { sinkDigest = HashAssignment(m) }); allocs > 1 {
			t.Errorf("%d entries: %.0f allocations, want at most 1", n, allocs)
		}
	}
}

var sinkDigest string

func BenchmarkHashAssignment(b *testing.B) {
	for _, n := range []int{13, 150} {
		m := sizedAssign(n)
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkDigest = HashAssignment(m)
			}
		})
	}
}
