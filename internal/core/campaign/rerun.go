package campaign

import (
	"encoding/json"

	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/harness"
)

// RerunPlan partitions a campaign's tests by comparing each test's
// current coverage digest against a previous run's index: unchanged
// tests replay their stored item results, changed or unknown tests
// re-execute. This is what turns a campaign into a per-commit
// regression tool — an unchanged campaign reruns zero items.
type RerunPlan struct {
	// Changed lists tests that must re-execute, in suite order.
	Changed []string
	// Replayed lists tests whose stored results replay, in suite order.
	Replayed []string
	// Reasons names, per changed test, the parameters whose schema
	// digest drifted (empty for tests with no valid entry or stored
	// result, or when the drift is in the seed or environment key).
	Reasons map[string][]string
	// Stored holds the replayed tests' results as Options.Stored takes
	// them: decoded from the item store, marked Replayed, execution
	// counters zeroed — a replay costs nothing and leaks nothing, so the
	// merged accounting reflects only what this campaign ran.
	Stored map[string]ItemResult
}

// PlanRerun computes the rerun partition for app under opts against a
// previous run's index and item store — the one check that a stored result
// may still stand in for its test. A nil index or store plans a full
// re-execution, and a record that no longer decodes re-executes its test.
// Overrides are applied before digesting, so a flipped default changes
// exactly the tests that read the parameter.
func PlanRerun(app *harness.App, opts Options, ix *coverage.Index, store *coverage.ItemStore) RerunPlan {
	schema := OverrideApp(app, opts.Overrides).Schema()
	tests, _ := selectTests(app, opts.Tests)
	plan := RerunPlan{Reasons: make(map[string][]string), Stored: make(map[string]ItemResult)}
	for _, t := range tests {
		name := t.Name
		var item ItemResult
		switch {
		case ix == nil || store == nil || ix.Tests[name] == nil || store.Items[name] == nil:
			plan.Changed = append(plan.Changed, name)
		case !ix.Valid(name, opts.Seed, opts.CoverageKey, schema):
			plan.Changed = append(plan.Changed, name)
			if changed := ix.ChangedParams(name, schema); len(changed) > 0 {
				plan.Reasons[name] = changed
			}
		case json.Unmarshal(store.Items[name], &item) != nil:
			plan.Changed = append(plan.Changed, name)
		default:
			item.Executions, item.ExecutionsSaved, item.LeakedGoroutines = 0, 0, 0
			item.Replayed = true
			plan.Stored[name] = item
			plan.Replayed = append(plan.Replayed, name)
		}
	}
	return plan
}
