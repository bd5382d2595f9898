package harness_test

import (
	"reflect"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/testgen"
)

// TestTrialOutcomeIsFullOutcome runs every test of the five apps under a
// heterogeneous assignment built from its pre-run — the first pool of its
// instances, so every parameter the pre-run placed is heterogeneous at once —
// three times: held as a map, as a trial, which keeps no report, and in
// full; and as a trial once more, handed to the agent as the recipe itself
// (Recipe.Assigner). Everything but the report must come out the same
// between trial and full: the verdict, the virtual time, the coverage set
// and the read trace; and the recipe's trial must be the map's, whole.
func TestTrialOutcomeIsFullOutcome(t *testing.T) {
	t.Parallel()
	spec := harness.CaptureSpec{ReadEvents: 1 << 16}
	reads, failed := 0, 0
	for _, app := range apps.All() {
		gen := testgen.New(app.Schema())
		for i := range app.Tests {
			test := &app.Tests[i]
			t.Run(app.Name+"/"+test.Name, func(t *testing.T) {
				pre := harness.RunOnce(app, test, agent.Options{}, 1)
				var assign map[agent.Key]string
				var recipe testgen.Recipe
				if insts := gen.Instances(testgen.PreRun{Test: test.Name, Report: pre.Report}, testgen.InstancesOptions{}); len(insts) > 0 {
					recipe = gen.Builder(&pre.Report).Pooled(testgen.BuildPools(test.Name, insts, 0)[0])
					assign = make(map[agent.Key]string)
					for _, e := range recipe.Entries() {
						assign[e.Key] = e.Value
					}
				}
				var outs [3]harness.Outcome
				for j, opts := range []agent.Options{
					{Assign: assign, Coverage: true, Trial: true},
					{Assign: assign, Coverage: true},
					{Assigner: recipe.Assigner(), Coverage: true, Trial: true},
				} {
					outs[j] = harness.RunOnceCaptured(app, test, opts, 2, nil, spec)
				}
				trial, full, fromRecipe := outs[0], outs[1], outs[2]
				trial.Elapsed, fromRecipe.Elapsed = 0, 0 // processor time
				if !reflect.DeepEqual(fromRecipe, trial) {
					t.Errorf("the recipe's trial differs from the map's:\n recipe: %+v\n map:    %+v", fromRecipe, trial)
				}
				if !reflect.DeepEqual(trial.Report, agent.Report{}) {
					t.Errorf("a trial's report is %+v, want the zero value", trial.Report)
				}
				if full.Report.UsedConf != (len(full.ReadParams) > 0) {
					t.Errorf("the full run read %v but its report says UsedConf=%v", full.ReadParams, full.Report.UsedConf)
				}
				if trial.Failed != full.Failed || trial.TimedOut != full.TimedOut || trial.Msg != full.Msg ||
					trial.ElapsedTicks != full.ElapsedTicks || trial.ReadsDropped != full.ReadsDropped ||
					!reflect.DeepEqual(trial.ReadParams, full.ReadParams) || !reflect.DeepEqual(trial.Reads, full.Reads) {
					t.Errorf("trial and full outcomes differ:\n trial: failed=%v timedOut=%v msg=%q ticks=%d reads=%d dropped=%d params=%v\n full:  failed=%v timedOut=%v msg=%q ticks=%d reads=%d dropped=%d params=%v",
						trial.Failed, trial.TimedOut, trial.Msg, trial.ElapsedTicks, len(trial.Reads), trial.ReadsDropped, trial.ReadParams,
						full.Failed, full.TimedOut, full.Msg, full.ElapsedTicks, len(full.Reads), full.ReadsDropped, full.ReadParams)
				}
				reads += len(full.Reads)
				if full.Failed {
					failed++
				}
			})
		}
	}
	// Most runs read configuration, and the assignment fails some of them,
	// so both the trace and the failure message are compared in earnest.
	if reads < 1000 || failed == 0 {
		t.Fatalf("%d reads compared, %d runs failed: the comparison is vacuous", reads, failed)
	}
	t.Logf("%d reads compared, %d runs failed", reads, failed)
}
