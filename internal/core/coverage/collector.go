// Package coverage turns the agent's read interception into a
// persistent param→tests index: during phase-1 pre-runs (and every
// phase-2 execution) it records which parameters each unit test
// actually reads, and phase 2 can then dispatch a parameter's
// instances only to tests that read it — the "configuration testing
// as continuous testing" direction (Ctest, PAPERS.md) that ROADMAP
// open item 1 calls the biggest raw-speed lever after memoization.
//
// The collector is the in-memory sink; the Index is its canonical,
// digest-keyed persisted form (see index.go). Coverage deliberately
// does NOT flow through the bounded forensic read trace: that trace
// is capped (CaptureSpec.ReadEvents) and drops reads past the limit,
// which would silently lose edges — the sink here dedupes instead of
// bounding, so a test reading ten thousand distinct parameters keeps
// every edge.
package coverage

import (
	"sort"
	"sync"
	"unsafe"
)

// testCov is one test's accumulated read set.
type testCov struct {
	params map[string]bool
	// sites maps param → set of app-frame callsites (file:line, already
	// normalized to the last two path segments by the agent). Filled
	// only for pre-runs, where the one stack-walk-enabled execution per
	// test is cheap.
	sites map[string]map[string]bool
	// last is the read set Observe merged last. Read sets are shared
	// between executions and never written, so the same slice again adds
	// nothing.
	last     *string
	lastSize int
}

// Collector accumulates deduplicated (param, test) coverage edges
// across a campaign. It is safe for concurrent use and — like the
// memo cache — nil-safe: a nil *Collector ignores observations, so
// callers never branch on whether coverage is enabled.
type Collector struct {
	mu    sync.Mutex
	tests map[string]*testCov
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{tests: make(map[string]*testCov)}
}

func (c *Collector) covFor(test string) *testCov {
	tc := c.tests[test]
	if tc == nil {
		tc = &testCov{params: make(map[string]bool)}
		c.tests[test] = tc
	}
	return tc
}

// Observe records that test read each of params. Duplicate edges
// collapse; order is irrelevant. No-op on a nil receiver or an empty
// param list (a test that read nothing gains no entry — absence and
// emptiness are distinguished by ObserveTest). params is read, never
// written, and must not change after: the slice Observe merged last for
// test (the same array and length) is skipped.
func (c *Collector) Observe(test string, params []string) {
	if c == nil || test == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(params) == 0 {
		return
	}
	tc := c.covFor(test)
	if data := unsafe.SliceData(params); data != tc.last || len(params) != tc.lastSize {
		for _, p := range params {
			tc.params[p] = true
		}
		tc.last, tc.lastSize = data, len(params)
	}
}

// ObserveTest ensures test has an entry even if it read no parameters:
// a pre-run that touched zero params is still a fact worth indexing
// (such a test can be deselected from every parameter campaign).
func (c *Collector) ObserveTest(test string) {
	if c == nil || test == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.covFor(test)
}

// ObserveSites records app-frame callsites per parameter for test.
// Callsites are advisory (triage breadcrumbs in the index); only the
// (param, test) edge set affects selection.
func (c *Collector) ObserveSites(test string, sites map[string][]string) {
	if c == nil || test == "" || len(sites) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tc := c.covFor(test)
	if tc.sites == nil {
		tc.sites = make(map[string]map[string]bool)
	}
	for p, ss := range sites {
		tc.params[p] = true
		set := tc.sites[p]
		if set == nil {
			set = make(map[string]bool)
			tc.sites[p] = set
		}
		for _, s := range ss {
			if s != "" {
				set[s] = true
			}
		}
	}
}

// Tests returns the sorted set of tests observed so far.
func (c *Collector) Tests() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.tests))
	for t := range c.tests {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Params returns the sorted parameters test was observed reading, and
// whether the test was observed at all (distinguishing "read nothing"
// from "never ran").
func (c *Collector) Params(test string) ([]string, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tc := c.tests[test]
	if tc == nil {
		return nil, false
	}
	out := make([]string, 0, len(tc.params))
	for p := range tc.params {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, true
}

// Sites returns test's param→sorted-callsites map (nil when none were
// observed).
func (c *Collector) Sites(test string) map[string][]string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tc := c.tests[test]
	if tc == nil || len(tc.sites) == 0 {
		return nil
	}
	out := make(map[string][]string, len(tc.sites))
	for p, set := range tc.sites {
		ss := make([]string, 0, len(set))
		for s := range set {
			ss = append(ss, s)
		}
		sort.Strings(ss)
		out[p] = ss
	}
	return out
}
