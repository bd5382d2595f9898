// Package gid is goroutine identity without a clock: the fallback.
//
// ZebraConf's ConfAgent must answer "which node's code is executing on the
// calling thread?" (paper §6.1), and Java ZebraConf keys its threadContext
// by thread ID. An execution under the harness takes that key from its
// virtual clock, which runs one member at a time and knows which
// (simtime.Scale.Member). This package serves an agent that has no clock:
// one driven by plain goroutines in a package test or a microbenchmark. Go
// deliberately hides goroutine IDs, so ID returns the number the runtime
// prints in stack traces, parsed from runtime.Stack — microseconds per call,
// more under a deep stack, which is why nothing on an execution's path
// calls it.
package gid

import (
	"bytes"
	"runtime"
	"strconv"
)

// ID returns the current goroutine's ID as printed by the Go runtime in
// stack traces ("goroutine N [running]:").
func ID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return parseGoroutineID(buf[:n])
}

// parseGoroutineID extracts N from a stack trace beginning
// "goroutine N [". It returns 0 if the header is malformed, which the Go
// runtime never produces in practice.
func parseGoroutineID(stack []byte) uint64 {
	const prefix = "goroutine "
	if !bytes.HasPrefix(stack, []byte(prefix)) {
		return 0
	}
	stack = stack[len(prefix):]
	end := bytes.IndexByte(stack, ' ')
	if end < 0 {
		return 0
	}
	id, err := strconv.ParseUint(string(stack[:end]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}
