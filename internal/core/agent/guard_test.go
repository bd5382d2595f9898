package agent_test

import (
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
)

// No agent hook on an execution's path may reach runtime.Stack: under the
// harness every hook takes the caller's identity from the execution's
// clock, and a read under StrategyPaper takes none. gid.ID is reachable
// only through the agent's fallback identity source, so counting that
// counts it. Not parallel: it swaps a package variable.
func TestNoStackWalkDuringRunOnce(t *testing.T) {
	calls, restore := agent.CountFallbackIdentity()
	defer restore()

	// The counter is live: an agent built bare asks the fallback.
	rt := confkit.NewRuntime(confkit.NewRegistry())
	rt.SetHooks(agent.New(agent.Options{}))
	rt.StartInit("N")
	rt.StopInit()
	if calls.Load() != 2 {
		t.Fatalf("a bare agent's StartInit and StopInit asked the fallback %d times, want 2", calls.Load())
	}
	calls.Store(0)

	for _, tc := range []struct{ app, test string }{
		{"miniflink", "TestCheckpointBarrier"},
		{"miniyarn", "TestNodeManagerLiveness"},
	} {
		app, err := apps.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		test, err := app.Test(tc.test)
		if err != nil {
			t.Fatal(err)
		}
		out := harness.RunOnce(app, test, agent.Options{}, 1)
		if out.Failed || len(out.Report.NodesStarted) == 0 || !out.Report.UsedConf {
			t.Fatalf("%s/%s did not exercise the hooks: %+v", tc.app, tc.test, out)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("%s/%s: %d agent hooks fell back to gid.ID (runtime.Stack) under RunOnce", tc.app, tc.test, n)
		}
	}
}
