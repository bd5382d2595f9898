package testgen

import (
	"sort"

	"zebraconf/internal/core/agent"
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
// pool combines the k-th instance of every parameter that still has one.
// Every instance appears in exactly one pool, and a pool never holds two
// instances of the same parameter, so merged assignments cannot conflict.
// maxPool bounds the members per pool (0 = unbounded, the paper's setting:
// pool size up to the number of parameters).
func BuildPools(test string, instances []Instance, maxPool int) []Pool {
	byParam := make(map[string][]Instance)
	var params []string
	for _, in := range instances {
		if len(byParam[in.Param]) == 0 {
			params = append(params, in.Param)
		}
		byParam[in.Param] = append(byParam[in.Param], in)
	}
	sort.Strings(params)

	var pools []Pool
	for slot := 0; ; slot++ {
		var members []Instance
		for _, p := range params {
			if slot < len(byParam[p]) {
				members = append(members, byParam[p][slot])
			}
		}
		if len(members) == 0 {
			return pools
		}
		if maxPool <= 0 {
			pools = append(pools, Pool{Test: test, Members: members})
			continue
		}
		for start := 0; start < len(members); start += maxPool {
			end := start + maxPool
			if end > len(members) {
				end = len(members)
			}
			pools = append(pools, Pool{Test: test, Members: members[start:end]})
		}
	}
}

// Split halves the pool for the divide-and-conquer recursion.
func (p Pool) Split() (Pool, Pool) {
	mid := len(p.Members) / 2
	return Pool{Test: p.Test, Members: p.Members[:mid]},
		Pool{Test: p.Test, Members: p.Members[mid:]}
}

// Assignment merges the member instances' assignments: the heterogeneous
// run assigns every member parameter at once; homogeneous arm j assigns
// value j of every member everywhere.
func (p Pool) Assignment(g *Generator, rep *agent.Report) Assignment {
	hetero := make(map[agent.Key]string)
	homoA := make(map[agent.Key]string)
	homoB := make(map[agent.Key]string)
	for _, in := range p.Members {
		a := g.AssignFor(in, rep)
		mergeAssign(hetero, a.Hetero)
		mergeAssign(homoA, a.Homo[0])
		mergeAssign(homoB, a.Homo[1])
	}
	return Assignment{Hetero: hetero, Homo: []map[agent.Key]string{homoA, homoB}}
}

// mergeAssign copies src into dst without overwriting existing keys
// (dependency-rule keys may repeat across members).
func mergeAssign(dst, src map[agent.Key]string) {
	for k, v := range src {
		if _, exists := dst[k]; !exists {
			dst[k] = v
		}
	}
}
