package testgen

import (
	"slices"
	"strings"
)

// Pool is one pooled test run: several instances of DIFFERENT parameters
// for the same unit test, assigned simultaneously (§4 "Pooled testing").
// When the pooled run passes, every member is cleared; when it fails, the
// pool splits in two and each half re-runs, recursing down to single
// instances, which get the full TestRunner verdict.
type Pool struct {
	Test    string
	Members []Instance
}

// BuildPools groups one unit test's instances into pools by slot: the k-th
// pool combines the k-th instance of every parameter that still has one,
// parameters in sorted order. Every instance appears in exactly one pool,
// and a pool never holds two instances of the same parameter, so merged
// assignments cannot conflict. maxPool bounds the members per pool (0 =
// unbounded, the paper's setting: pool size up to the number of
// parameters). BuildPools leaves instances as it is: the pools share one
// exactly sized copy of it, each capped at its own end, so appending to one
// pool's Members never writes into another's.
func BuildPools(test string, instances []Instance, maxPool int) []Pool {
	n := len(instances)
	if n == 0 {
		return nil
	}
	// One buffer holds order and runs.
	idx := make([]int32, 2*n+1)
	// order lists instances by parameter, stably: a parameter's instances
	// keep their input order even when they are not contiguous.
	order := idx[:n]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(instances[a].Param, instances[b].Param) })
	// runs[i] is where the i-th parameter's instances start in order; the
	// longest run is the number of slots.
	runs := idx[n:n]
	for i := range order {
		if i == 0 || instances[order[i]].Param != instances[order[i-1]].Param {
			runs = append(runs, int32(i))
		}
	}
	runs = append(runs, int32(n))
	slots := int32(0)
	for i := 0; i+1 < len(runs); i++ {
		slots = max(slots, runs[i+1]-runs[i])
	}

	// A slot of s members makes at most s/maxPool+1 pools.
	bound := int(slots)
	if maxPool > 0 {
		bound += n / maxPool
	}
	members := make([]Instance, 0, n)
	pools := make([]Pool, 0, bound)
	for slot := int32(0); slot < slots; slot++ {
		lo := len(members)
		for i := 0; i+1 < len(runs); i++ {
			if at := runs[i] + slot; at < runs[i+1] {
				members = append(members, instances[order[at]])
			}
		}
		hi := len(members)
		step := hi - lo
		if maxPool > 0 {
			step = maxPool
		}
		for start := lo; start < hi; start += step {
			end := min(start+step, hi)
			pools = append(pools, Pool{Test: test, Members: members[start:end:end]})
		}
	}
	return pools
}

// Split halves the pool for the divide-and-conquer recursion.
func (p Pool) Split() (Pool, Pool) {
	mid := len(p.Members) / 2
	return Pool{Test: p.Test, Members: p.Members[:mid:mid]},
		Pool{Test: p.Test, Members: p.Members[mid:]}
}
