package dist_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/obs"
)

// TestCacheEquivalenceAllApps is the memoization soundness property on
// every mini application: with canonical seeds applied unconditionally,
// -exec-cache only skips re-running byte-identical executions, so the
// reported parameter set, p-values, and verdict statistics must be
// identical with the cache on and off — in-process and sharded across
// worker subprocesses — while the cache-on run performs strictly fewer
// executions.
func TestCacheEquivalenceAllApps(t *testing.T) {
	cases := []struct {
		app    string
		params []string
		tests  []string
	}{
		{"minihdfs",
			[]string{"dfs.bytes-per-checksum", "dfs.checksum.type"},
			[]string{"TestWriteRead", "TestFsck", "TestMkdirList"}},
		{"miniyarn",
			[]string{"yarn.scheduler.maximum-allocation-mb", "yarn.timeline-service.enabled"},
			[]string{"TestAllocationAtMaxMB", "TestTimelineQuery", "TestSubmitApplication"}},
		{"minihbase",
			[]string{"hadoop.rpc.protection", "hbase.client.scanner.caching", "hbase.regionserver.thrift.compact"},
			[]string{"TestPutGet", "TestThriftAdmin"}},
		{"minimr",
			[]string{"mapreduce.jobhistory.max-age-ms", "mapreduce.jobhistory.address", "mapreduce.map.output.compress.codec"},
			[]string{"TestWordCount", "TestHistoryArchive"}},
		{"miniflink",
			[]string{"akka.ssl.enabled", "taskmanager.numberOfTaskSlots"},
			[]string{"TestJobSubmission", "TestSlotAllocationExact", "TestDataExchange"}},
	}
	const seed = 7
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app, func(t *testing.T) {
			t.Parallel()
			app, err := apps.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			mkOpts := func(cacheOff bool) campaign.Options {
				return campaign.Options{
					Params:           tc.params,
					Tests:            tc.tests,
					Seed:             seed,
					DisableExecCache: cacheOff,
				}
			}

			off := campaign.Run(app, mkOpts(true))
			on := campaign.Run(app, mkOpts(false))

			if len(on.Reported) == 0 {
				t.Fatalf("%s subset reported nothing; the equivalence check is vacuous", tc.app)
			}
			if off.Counts.ExecutionsSaved != 0 {
				t.Fatalf("cache-off run claims %d saved executions", off.Counts.ExecutionsSaved)
			}
			if on.Counts.ExecutionsSaved == 0 {
				t.Fatal("cache saved nothing on a multi-instance subset")
			}
			if on.Counts.Executed >= off.Counts.Executed {
				t.Fatalf("cache did not reduce executions: on %d, off %d",
					on.Counts.Executed, off.Counts.Executed)
			}
			if on.Counts.Executed+on.Counts.ExecutionsSaved != off.Counts.Executed {
				t.Fatalf("executed+saved with cache (%d+%d) != executed without (%d)",
					on.Counts.Executed, on.Counts.ExecutionsSaved, off.Counts.Executed)
			}
			// Everything except the execution accounting must be
			// byte-identical: same reports, p-values, truth labels,
			// verdict statistics, instance counts.
			if got, want := normalized(t, on), normalized(t, off); got != want {
				t.Fatalf("cache changed the campaign result:\n on  %s\n off %s", got, want)
			}

			// The same property across worker subprocesses, where the
			// cache adds a coordinator-backed shared level.
			for _, cacheOff := range []bool{false, true} {
				dres := runDistributed(t, app, mkOpts(cacheOff), dist.Options{
					Workers:   2,
					WorkerCmd: workerFactory(),
				})
				if !reflect.DeepEqual(dres.Reported, on.Reported) {
					t.Fatalf("workers=2 cacheOff=%v reported set diverges:\n dist  %+v\n local %+v",
						cacheOff, dres.Reported, on.Reported)
				}
				if dres.FirstTrialSignals != on.FirstTrialSignals ||
					dres.FilteredByHypothesis != on.FilteredByHypothesis ||
					dres.HomoInvalid != on.HomoInvalid {
					t.Fatalf("workers=2 cacheOff=%v verdict statistics diverge", cacheOff)
				}
				want := on.Counts
				if cacheOff {
					want = off.Counts
				}
				if dres.Counts.Executed != want.Executed || dres.Counts.ExecutionsSaved != want.ExecutionsSaved {
					t.Fatalf("workers=2 cacheOff=%v executions diverge: dist %d saved %d, local %d saved %d",
						cacheOff, dres.Counts.Executed, dres.Counts.ExecutionsSaved,
						want.Executed, want.ExecutionsSaved)
				}
			}
		})
	}
}

// normalized renders a result as JSON with the fields memoization is
// allowed to change (execution accounting, wall time) zeroed.
func normalized(t *testing.T, res *campaign.Result) string {
	t.Helper()
	cp := *res
	cp.Elapsed = 0
	cp.Counts.Executed = 0
	cp.Counts.ExecutionsSaved = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// recordingDistributor keeps the work items a campaign submits and
// executes none of them.
type recordingDistributor struct{ items []campaign.WorkItem }

func (d *recordingDistributor) Begin(obs.SpanID, int)         {}
func (d *recordingDistributor) Submit(item campaign.WorkItem) { d.items = append(d.items, item) }
func (d *recordingDistributor) Drain() []campaign.ItemResult  { return nil }

// TestItemResultSameInProcessAndInWorker holds the one executing side to
// its word: with the frequent-failer rule off, a work item executed by the
// in-process pipeline and by a ServeWorker session yields the same
// ItemResult — verdicts, p-values, evidence records, execution and cache
// accounting — but for the one field only a worker fills (Coverage).
// One slot and the barrier release on both sides, so items meet the session's
// trial budget pool and evidence budget in the same order.
func TestItemResultSameInProcessAndInWorker(t *testing.T) {
	cases := []struct {
		app    string
		params []string
		tests  []string
	}{
		{"minihdfs", []string{"dfs.bytes-per-checksum", "dfs.checksum.type"}, []string{"TestWriteRead", "TestFsck", "TestMkdirList"}},
		{"miniyarn", []string{"yarn.scheduler.maximum-allocation-mb", "yarn.timeline-service.enabled"}, []string{"TestAllocationAtMaxMB", "TestTimelineQuery", "TestSubmitApplication"}},
		{"miniflink", []string{"akka.ssl.enabled", "taskmanager.numberOfTaskSlots"}, []string{"TestJobSubmission", "TestSlotAllocationExact", "TestDataExchange"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app, func(t *testing.T) {
			t.Parallel()
			app, err := apps.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			opts := campaign.Options{
				Params:              tc.params,
				Tests:               tc.tests,
				Seed:                7,
				Parallelism:         1,
				QuarantineThreshold: math.MaxInt32,
				EvidenceMax:         -1,
			}
			local := campaign.Run(app, opts)
			if len(local.Reported) == 0 {
				t.Fatalf("%s subset reported nothing; the equivalence check is vacuous", tc.app)
			}

			rec := &recordingDistributor{}
			opts.Distributor = rec
			campaign.Run(app, opts)
			cfg := dist.ConfigFrom(opts)
			cfg.Parallel = 1
			s := startWorkerSession(t, app, cfg)
			for i := range rec.items {
				s.send(dist.Msg{Type: dist.MsgRun, Item: &rec.items[i]})
				got := s.result()
				if got.Coverage == nil {
					t.Errorf("item %d: the worker shipped no coverage edges", got.ID)
				}
				got.Coverage = nil
				// The worker's result crossed the wire, so compare as
				// the wire (and the journal) would carry both.
				a, _ := json.Marshal(got)
				b, _ := json.Marshal(local.Items[got.ID])
				if string(a) != string(b) {
					t.Errorf("item %d (%s) differs:\n worker     %s\n in process %s", got.ID, got.Test, a, b)
				}
			}
			s.bye()
		})
	}
}
