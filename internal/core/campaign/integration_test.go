package campaign_test

import (
	"encoding/json"
	"math"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
)

// TestMinihdfsSubsetCampaign drives a real (non-synthetic) campaign over a
// representative minihdfs slice: transport, checksum, liveness, web policy,
// a trap, and safe parameters.
func TestMinihdfsSubsetCampaign(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("minihdfs")
	if err != nil {
		t.Fatal(err)
	}
	res := campaign.Run(app, campaign.Options{
		Params: []string{
			"hadoop.rpc.protection",
			minihdfs.ParamChecksumType,
			minihdfs.ParamHeartbeatInterval,
			minihdfs.ParamHTTPPolicy,
			minihdfs.ParamScanPeriod,     // FP trap
			minihdfs.ParamReplication,    // safe
			minihdfs.ParamNNHandlerCount, // safe
		},
		Tests: []string{"TestWriteRead", "TestHeartbeatLiveness", "TestFsck",
			"TestScanPeriodInternals", "TestMkdirList"},
	})
	if len(res.Missed) != 0 {
		t.Fatalf("missed: %v", res.Missed)
	}
	if res.TruePositives != 4 {
		t.Fatalf("true positives = %d, want 4 (%+v)", res.TruePositives, res.Reported)
	}
	if res.FalsePositives != 1 {
		t.Fatalf("false positives = %d, want exactly the scan-period trap (%+v)",
			res.FalsePositives, res.Reported)
	}
	if res.Counts.Original <= res.Counts.AfterPreRun || res.Counts.AfterPreRun < res.Counts.AfterUncertainty {
		t.Fatalf("reduction pipeline broken: %+v", res.Counts)
	}
}

// TestMiniflinkUncertaintyExclusion checks the §6.2/E7 behaviour on the
// designed outlier: miniflink tests create configuration objects on
// unannotated goroutines, and those (test, parameter) combinations are
// excluded rather than reported.
func TestMiniflinkUncertaintyExclusion(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("miniflink")
	if err != nil {
		t.Fatal(err)
	}
	res := campaign.Run(app, campaign.Options{
		Params: []string{"taskmanager.network.numberOfBuffers", "state.backend"},
	})
	if res.UncertainTests < 2 {
		t.Fatalf("uncertain tests = %d, want the two seeded helper-goroutine tests", res.UncertainTests)
	}
	if res.Counts.AfterUncertainty >= res.Counts.AfterPreRun {
		t.Fatalf("uncertainty filter removed nothing: %+v", res.Counts)
	}
	if res.FalsePositives != 0 {
		t.Fatalf("uncertain objects caused false positives: %+v", res.Reported)
	}
}

// TestThreadOnlyStrategyRegresses demonstrates the paper's point that
// attempt #3 (thread attribution) misattributes reads when tests call node
// internals: the private-state trap test then passes under heterogeneous
// values (the mapping serves the test's value on the test's goroutine), so
// results differ from the object-mapping strategy.
func TestThreadOnlyStrategyRegresses(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("minihdfs")
	if err != nil {
		t.Fatal(err)
	}
	opts := campaign.Options{
		Params: []string{minihdfs.ParamScanPeriod},
		Tests:  []string{"TestScanPeriodInternals"},
	}
	paper := campaign.Run(app, opts)

	app2, _ := apps.ByName("minihdfs")
	opts.Strategy = agent.StrategyThreadOnly
	threadOnly := campaign.Run(app2, opts)

	if len(paper.Reported) != 1 {
		t.Fatalf("object mapping did not surface the trap: %+v", paper.Reported)
	}
	if len(threadOnly.Reported) == len(paper.Reported) {
		t.Skip("thread-only attribution produced the same result on this trap; its divergence shows elsewhere")
	}
}

// TestMinihbaseLayeredCoverage verifies the Table 5 layering assumption: an
// HBase unit test (flushing a memstore to the embedded HDFS) exposes an
// HDFS transport parameter, found through the HBase campaign.
func TestMinihbaseLayeredCoverage(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("minihbase")
	if err != nil {
		t.Fatal(err)
	}
	res := campaign.Run(app, campaign.Options{
		Params: []string{minihdfs.ParamEncryptDataTransfer},
		Tests:  []string{"TestFlushToHDFS"},
	})
	if res.TruePositives != 1 {
		t.Fatalf("HDFS parameter not found through the HBase suite: %+v (missed %v)",
			res.Reported, res.Missed)
	}
}

// TestMinimrCodecDependencyRule verifies the §4 dependency rule: the codec
// is only effective with compression enabled, and with the rule in place
// the campaign still finds it.
func TestMinimrCodecDependencyRule(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("minimr")
	if err != nil {
		t.Fatal(err)
	}
	res := campaign.Run(app, campaign.Options{
		Params: []string{"mapreduce.map.output.compress.codec"},
		Tests:  []string{"TestWordCount"},
	})
	if res.TruePositives != 1 {
		t.Fatalf("codec not found despite the dependency rule: %+v (missed %v)", res.Reported, res.Missed)
	}
}

// TestConditionalReadHazardConvicted seeds the hazard the coverage
// fallback exists for: dfs.image.compression.codec is read only when
// dfs.image.compress is true, so the default-configuration pre-run never
// observes it and the paper's read filter alone would generate zero
// instances — silently passing an unsafe parameter. The mandatory
// full-dispatch fallback must convict it with selection on or off, and
// on a warm index too (the phase-2 edge recorded by the forced dispatch
// keeps it generating).
func TestConditionalReadHazardConvicted(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("minihdfs")
	if err != nil {
		t.Fatal(err)
	}
	base := campaign.Options{
		Params: []string{minihdfs.ParamImageCodec},
		Tests:  []string{"TestCheckpoint"},
		Seed:   9,
	}
	convicted := func(res *campaign.Result) bool {
		for _, r := range res.Reported {
			if r.Param == minihdfs.ParamImageCodec {
				return true
			}
		}
		return false
	}

	// Cold index, selection off.
	off := campaign.Run(app, base)
	if !convicted(off) {
		t.Fatalf("-select=all missed the conditional-read param: %+v", off.Reported)
	}
	// Cold index, selection on (no index yet — full dispatch).
	onOpts := base
	onOpts.SelectCoverage = true
	on := campaign.Run(app, onOpts)
	if !convicted(on) {
		t.Fatalf("-select=coverage (cold) missed the conditional-read param: %+v", on.Reported)
	}

	// Warm index built from the forced run: the phase-2 execution read
	// the codec, so the edge exists and selection keeps the test.
	ix := coverage.Build(app.Name, base.Seed, "", on.Coverage, app.Schema())
	if readers := ix.TestsReading(minihdfs.ParamImageCodec); len(readers) == 0 {
		t.Fatal("forced dispatch did not record the conditional read edge")
	}
	warm := onOpts
	warm.CoverageIndex = ix
	wres := campaign.Run(app, warm)
	if !convicted(wres) {
		t.Fatalf("warm selection dropped the conditional-read param: %+v", wres.Reported)
	}
	if len(wres.DeselectedTests) != 0 {
		t.Fatalf("the only test reads the param; deselected %v", wres.DeselectedTests)
	}
}

// TestSameSeedCampaignByteIdenticalAcrossParallelism is "same seed ⇒ same
// bytes": executions run on virtual clocks, so nothing in a campaign's
// result depends on how many of them shared the processors. The full
// minimr, miniyarn and miniflink campaigns at one slot and at two produce
// byte-identical result JSON once the wall-clock Elapsed is zeroed. Live
// quarantine, a policy that acts on completion order, is pinned off, as the
// benchmark pins it.
func TestSameSeedCampaignByteIdenticalAcrossParallelism(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"minimr", "miniyarn", "miniflink"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func(slots int) string {
				res := campaign.Run(app, campaign.Options{
					Seed:                3,
					Parallelism:         slots,
					QuarantineThreshold: math.MaxInt32,
				})
				if len(res.Reported) == 0 {
					t.Fatalf("%s campaign reported nothing; the comparison is vacuous", name)
				}
				res.Elapsed = 0
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			if one, two := run(1), run(2); one != two {
				t.Fatalf("result JSON differs between Parallelism 1 and 2:\n 1: %s\n 2: %s", one, two)
			}
		})
	}
}

// TestSchemaBuiltOnceAndOverridesCopy pins the schema contract: an app's
// Schema hands out the same registry on every call, and OverrideApp derives
// a copy — the app's own registry (and the common parameters it shares
// with the other apps through Include) keeps its defaults, and two
// differently-overridden wrappers of one app, the concurrent served
// campaigns case, each see their own.
func TestSchemaBuiltOnceAndOverridesCopy(t *testing.T) {
	t.Parallel()
	for _, app := range apps.All() {
		if app.Schema() != app.Schema() {
			t.Errorf("%s: Schema() built a second registry", app.Name)
		}
		// The first parameter is the app's own, the last one inherited
		// from the common registry through Include.
		names := app.Schema().Names()
		for _, p := range []string{names[0], names[len(names)-1]} {
			orig := app.Schema().Lookup(p).Default
			a := campaign.OverrideApp(app, map[string]string{p: "override-a", "no.such.param": "x"})
			b := campaign.OverrideApp(app, map[string]string{p: "override-b"})
			if a.Schema() != a.Schema() {
				t.Errorf("%s: overridden Schema() built a second registry", app.Name)
			}
			if got := a.Schema().Lookup(p).Default; got != "override-a" {
				t.Errorf("%s: wrapper a sees %s=%q", app.Name, p, got)
			}
			if got := b.Schema().Lookup(p).Default; got != "override-b" {
				t.Errorf("%s: wrapper b sees %s=%q", app.Name, p, got)
			}
			if got := app.Schema().Lookup(p).Default; got != orig {
				t.Errorf("%s: OverrideApp mutated the app's registry: %s=%q, was %q", app.Name, p, got, orig)
			}
			if a.Schema().Len() != app.Schema().Len() || a.Schema().Lookup("no.such.param") != nil {
				t.Errorf("%s: an unknown override name changed the parameter set", app.Name)
			}
		}
	}
}
