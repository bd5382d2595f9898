package testgen

import "zebraconf/internal/core/agent"

// AssignOf is the recipe's assignment as a map, built from its entries:
// what the tests hold against the reference derivations' maps.
func AssignOf(r Recipe) map[agent.Key]string {
	m := make(map[agent.Key]string)
	for _, e := range r.Entries() {
		m[e.Key] = e.Value
	}
	return m
}
