//go:build race

package rpcsim

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of what it is handed back, so a pooled path allocates
// there now and then and allocation guards on one skip it.
const raceEnabled = true
