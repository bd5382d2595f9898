//go:build !race

package rpcsim

const raceEnabled = false
