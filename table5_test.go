package zebraconf_test

import (
	"math"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
)

// TestTable5RowsIgnoreQuarantine pins that Table 5 rows 1–3 are a function
// of the pre-runs: a campaign under the default frequent-failer quarantine,
// which stops generating a parameter's instances once it fails in three
// tests, reports the same rows as one that never quarantines.
func TestTable5RowsIgnoreQuarantine(t *testing.T) {
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			if testing.Short() && app.Name == "minihdfs" {
				t.Skip("two full minihdfs campaigns")
			}
			rows := func(threshold int) [3]int64 {
				c := campaign.Run(app, campaign.Options{Seed: 1, QuarantineThreshold: threshold}).Counts
				return [3]int64{c.Original, c.AfterPreRun, c.AfterUncertainty}
			}
			if def, never := rows(0), rows(math.MaxInt32); def != never {
				t.Fatalf("rows (original, after pre-run, after uncertainty) = %v under the default quarantine, %v without", def, never)
			}
		})
	}
}
