package harness_test

import (
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
)

// BenchmarkRunOnceTrial prices one phase-2 trial end to end: miniflink's
// TestFlakyCheckpoint, which draws from its Env once, run with coverage on
// and no report kept, as the runner runs a trial. Each op's seed differs,
// as trials' seeds do.
func BenchmarkRunOnceTrial(b *testing.B) {
	app, err := apps.ByName("miniflink")
	if err != nil {
		b.Fatal(err)
	}
	test, err := app.Test("TestFlakyCheckpoint")
	if err != nil {
		b.Fatal(err)
	}
	opts := agent.Options{Trial: true, Coverage: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		if out := harness.RunOnce(app, test, opts, seed); len(out.ReadParams) == 0 {
			b.Fatalf("seed %d: the trial read no configuration", seed)
		}
	}
}
