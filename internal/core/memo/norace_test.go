//go:build !race

package memo

const raceEnabled = false
