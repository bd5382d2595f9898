package agent

import "sync/atomic"

// CountFallbackIdentity makes the fallback identity source count its calls
// until restore is called. The caller must not run in parallel with a test
// that builds an agent.
func CountFallbackIdentity() (calls *atomic.Int64, restore func()) {
	calls = new(atomic.Int64)
	orig := fallbackIdentity
	fallbackIdentity = func() uint64 {
		calls.Add(1)
		return orig()
	}
	return calls, func() { fallbackIdentity = orig }
}

// AppCallsite is appCallsite, for an interception hook of the external
// test package to call from the depth InterceptGet calls it at.
var AppCallsite = appCallsite
