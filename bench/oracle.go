package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"zebraconf/internal/core/campaign"
)

//go:embed oracle.json
var oracleJSON []byte

// oracleEntry is the known answer for one app's full campaign under the
// pinned policy. Reported and the TP/FP split are written by hand from the
// registry's Truth labels and the app's tests; Resolved, the count of
// resolved executions per campaign seed, is pinned from a first run and
// only checks determinism.
type oracleEntry struct {
	Reported       []string        `json:"reported"`
	TruePositives  int             `json:"true_positives"`
	FalsePositives int             `json:"false_positives"`
	Resolved       map[int64]int64 `json:"resolved"`
}

// oracle maps an app name to its entry.
type oracle map[string]oracleEntry

func loadOracle() (oracle, error) {
	var raw struct {
		Apps oracle `json:"apps"`
	}
	if err := json.Unmarshal(oracleJSON, &raw); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	return raw.Apps, nil
}

// checker counts campaigns attempted and the ones whose answer was wrong.
type checker struct {
	oracle    oracle
	attempted int
	failures  []string
	// first is the resolved-execution count of the first campaign seen per
	// (app, seed); drifted counts the campaigns whose count differed from
	// it or from the oracle's pinned one.
	first   map[string]int64
	drifted int
}

func (c *checker) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// check holds one campaign to the oracle. Each campaign is one attempted
// operation and fails at most once, whatever the number of mismatches.
func (c *checker) check(w *workload, seed int64, res *campaign.Result) {
	c.attempted++
	want, ok := c.oracle[res.App]
	if !ok {
		c.fail("%s/%s: no oracle entry", w.name, res.App)
		return
	}
	var got []string
	for _, p := range res.Reported {
		got = append(got, p.Param)
	}
	sort.Strings(got)
	var wrong []string
	if strings.Join(got, ",") != strings.Join(want.Reported, ",") {
		wrong = append(wrong, fmt.Sprintf("reported %v, want %v", got, want.Reported))
	}
	if res.TruePositives != want.TruePositives || res.FalsePositives != want.FalsePositives {
		wrong = append(wrong, fmt.Sprintf("TP/FP %d/%d, want %d/%d",
			res.TruePositives, res.FalsePositives, want.TruePositives, want.FalsePositives))
	}
	// The pinned policy makes the amount of work a function of the seed: a
	// campaign should resolve the count pinned for its seed, and passes of
	// any one seed should agree with each other. Where that is exact it is
	// enforced; elsewhere a differing count is drift, counted but not failed.
	resolved := res.Counts.Executed + res.Counts.ExecutionsSaved
	var drift []string
	if pinned, ok := want.Resolved[seed]; ok && resolved != pinned {
		drift = append(drift, fmt.Sprintf("resolved %d executions, pinned %d", resolved, pinned))
	}
	key := fmt.Sprintf("%s/%d", res.App, seed)
	if first, seen := c.first[key]; !seen {
		if c.first == nil {
			c.first = make(map[string]int64)
		}
		c.first[key] = resolved
	} else if first != resolved {
		drift = append(drift, fmt.Sprintf("resolved %d executions, an earlier pass on this seed %d", resolved, first))
	}
	if len(drift) > 0 {
		c.drifted++
		if w.exactCounts {
			wrong = append(wrong, drift...)
		}
	}
	if len(res.SkippedTests) > 0 || len(res.QuarantinedItems) > 0 || res.LeakedGoroutines != 0 || res.WorkerStalls != 0 {
		wrong = append(wrong, fmt.Sprintf("skipped tests %v, quarantined items %v, %d leaked goroutines, %d worker stalls",
			res.SkippedTests, res.QuarantinedItems, res.LeakedGoroutines, res.WorkerStalls))
	}
	if len(wrong) > 0 {
		c.fail("%s/%s seed %d: %s", w.name, res.App, seed, strings.Join(wrong, "; "))
	}
}
