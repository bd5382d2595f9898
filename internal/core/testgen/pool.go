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
// parameters). The pools share one backing array, each capped at its own
// end, so appending to one pool's Members never writes into another's.
func BuildPools(test string, instances []Instance, maxPool int) []Pool {
	// order lists instances by parameter, stably: a parameter's instances
	// keep their input order even when they are not contiguous.
	order := make([]int32, len(instances))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(instances[a].Param, instances[b].Param) })
	// runs[i] is where the i-th parameter's instances start in order.
	var runs []int
	for i := range order {
		if i == 0 || instances[order[i]].Param != instances[order[i-1]].Param {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(order))

	members := make([]Instance, 0, len(instances))
	var pools []Pool
	for slot := 0; ; slot++ {
		lo := len(members)
		for i := 0; i+1 < len(runs); i++ {
			if at := runs[i] + slot; at < runs[i+1] {
				members = append(members, instances[order[at]])
			}
		}
		hi := len(members)
		if hi == lo {
			return pools
		}
		step := hi - lo
		if maxPool > 0 {
			step = maxPool
		}
		for start := lo; start < hi; start += step {
			end := min(start+step, hi)
			pools = append(pools, Pool{Test: test, Members: members[start:end:end]})
		}
	}
}

// Split halves the pool for the divide-and-conquer recursion.
func (p Pool) Split() (Pool, Pool) {
	mid := len(p.Members) / 2
	return Pool{Test: p.Test, Members: p.Members[:mid:mid]},
		Pool{Test: p.Test, Members: p.Members[mid:]}
}
