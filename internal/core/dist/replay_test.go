package dist_test

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/obs"
)

// foldFamilies are the registry families the event fold implies (the
// "implies" column of the catalog in DESIGN.md §7). Of the evidence
// truncation family only reason=budget is a tally, so it is left out.
var foldFamilies = append([]string{
	obs.MPhaseSeconds, obs.MItemSeconds, obs.MWorkerItems, obs.MItemRunSeconds,
	obs.MItemRetries, obs.MItemsQuarantined, obs.MWorkerSpawns, obs.MWorkerCrashes,
	obs.MWorkerStalls, obs.MCacheHits, obs.MCacheCoalesced, obs.MQuarantine, obs.MSchedPredRatio,
}, itemFamilies...)

// itemFamilies are the families folded from the tallies a work item's events
// carry, so they read the same whichever executor ran the items.
var itemFamilies = []string{
	obs.MInstancesTotal, obs.MInstancesDone, obs.MItemExecutions, obs.MCacheSaved,
	obs.MVerdicts, obs.MFirstTrial, obs.MTrialsSaved, obs.MEvidenceRecords,
	obs.MAbandonedGoroutines, obs.MSkippedTests,
}

// foldSeries renders o's registry and keeps the series of the given
// families, keyed by everything on the exposition line but the value.
func foldSeries(t *testing.T, o *obs.Observer, families []string) map[string]float64 {
	t.Helper()
	var b bytes.Buffer
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		for _, fam := range families {
			if strings.HasPrefix(line, fam) {
				v, err := strconv.ParseFloat(line[cut+1:], 64)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				out[line[:cut]] = v
			}
		}
	}
	return out
}

// replay feeds a parsed events.jsonl back through Event on a fresh Observer
// with status tables and a registry attached.
func replay(recs []obs.EventRecord) *obs.Observer {
	o := obs.New()
	o.Status = obs.NewStatus()
	for _, rec := range recs {
		attrs := make([]obs.Attr, 0, len(rec.Attrs))
		for k, v := range rec.Attrs { // every number is a float64 by now
			attrs = append(attrs, obs.Attr{Key: k, Value: v})
		}
		o.Event(rec.Event, attrs...)
	}
	return o
}

// TestEventLogRebuildsViews: the event log is enough to rebuild the views
// derived from it. A real campaign runs with an event log, the status
// tables and a registry attached; its events.jsonl, fed back through Event
// on a fresh Observer, must give the same parameter table, worker table,
// campaign snapshot and — series by series — the same values in every
// registry family the fold feeds.
func TestEventLogRebuildsViews(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		app     string
		workers int
	}{
		{"miniflink", 0},
		{"miniyarn", 2},
	} {
		tc := tc
		t.Run(tc.app, func(t *testing.T) {
			t.Parallel()
			app, err := apps.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			live := obs.New()
			live.Status = obs.NewStatus()
			live.Events = obs.NewEventLog(&log)
			opts := campaign.Options{Seed: 1, Obs: live}
			if tc.workers == 0 {
				campaign.Run(app, opts)
			} else {
				runDistributed(t, app, opts, dist.Options{Workers: tc.workers, WorkerCmd: workerFactory()})
			}

			recs, err := obs.ReadEvents(&log)
			if err != nil {
				t.Fatal(err)
			}
			replayed := replay(recs)
			seen := make(map[string]bool)
			for _, rec := range recs {
				seen[rec.Event] = true
			}
			for _, ev := range []string{obs.EvCampaignStart, obs.EvItemQueued, obs.EvItemComplete, obs.EvCampaignFinish} {
				if !seen[ev] {
					t.Errorf("no %s in the log", ev)
				}
			}
			if tc.workers > 0 && !(seen[obs.EvWorkerSpawn] && seen[obs.EvWorkerDone]) {
				t.Errorf("no worker lifecycle in the log: %v", seen)
			}

			if a, b := live.Params(), replayed.Params(); !reflect.DeepEqual(a, b) {
				t.Errorf("Params():\nlive     %+v\nreplayed %+v", a, b)
			}
			// Masked: what a heartbeat reports (a health gauge, not a
			// fact), and in the campaign snapshot the slot setting and the
			// executions, whose pre-run share is counted per execution.
			workers := func(o *obs.Observer) []obs.WorkerStatus {
				ws := o.Workers()
				for i := range ws {
					ws[i].LastHeartbeatS, ws[i].Inflight = 0, nil
					ws[i].Executions, ws[i].Goroutines, ws[i].HeapBytes = 0, 0, 0
				}
				return ws
			}
			if a, b := workers(live), workers(replayed); !reflect.DeepEqual(a, b) || len(a) != tc.workers {
				t.Errorf("Workers():\nlive     %+v\nreplayed %+v", a, b)
			}
			snapshot := func(o *obs.Observer) obs.CampaignStatus {
				cs := o.Campaign()
				cs.Slots = 0
				cs.Executions, cs.ExecRate, cs.CacheHitRate = 0, 0, 0
				return cs
			}
			a, b := snapshot(live), snapshot(replayed)
			if a != b || !a.Done || a.ItemsDone == 0 || a.ElapsedSeconds <= 0 {
				t.Errorf("Campaign():\nlive     %+v\nreplayed %+v", a, b)
			}

			want, got := foldSeries(t, live, foldFamilies), foldSeries(t, replayed, foldFamilies)
			if len(want) == 0 {
				t.Fatal("the campaign fed none of the fold's families")
			}
			for series, v := range want {
				// Histogram sums add the same terms in emission order live
				// and in log order here; allow the rounding that reorders.
				if r, ok := got[series]; !ok || math.Abs(r-v) > 1e-9*math.Max(1, math.Abs(v)) {
					t.Errorf("%s: live %v, replayed %v (present %v)", series, v, r, ok)
				}
			}
			for series := range got {
				if _, ok := want[series]; !ok {
					t.Errorf("%s: only in the replayed registry", series)
				}
			}
		})
	}
}
