// Package zebraconf_test is the benchmark harness regenerating every table
// and figure of the paper's evaluation (see DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results).
//
// Heavy experiments run one full campaign per benchmark iteration; with
// the default -benchtime they execute once. Set ZEBRACONF_FULL=1 to run
// the campaigns over every parameter instead of the representative subset.
package zebraconf_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/simtime"
)

// fullCampaign reports whether the expensive full-parameter campaigns were
// requested.
func fullCampaign() bool { return os.Getenv("ZEBRACONF_FULL") == "1" }

// subsetParams returns a representative parameter subset for app covering
// every seeded-unsafe parameter, every false-positive trap, and a slice of
// safe parameters — enough to regenerate Table 3's content and the
// precision scoring at benchmark-friendly cost.
func subsetParams(app *harness.App) []string {
	if fullCampaign() {
		return nil // no filter: every parameter
	}
	schema := app.Schema()
	var out []string
	safeBudget := 6
	for _, p := range schema.Params() {
		switch p.Truth {
		case confkit.SafetyUnsafe, confkit.SafetyFalsePositive:
			out = append(out, p.Name)
		default:
			if safeBudget > 0 {
				out = append(out, p.Name)
				safeBudget--
			}
		}
	}
	return out
}

// --- Table 1 / Table 2 / Table 4: application statistics -----------------

func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range apps.All() {
			schema := app.Schema()
			b.ReportMetric(float64(len(app.Tests)), app.Name+"_tests")
			b.ReportMetric(float64(schema.Len()), app.Name+"_params")
		}
	}
}

func BenchmarkTable4Annotations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range apps.All() {
			b.ReportMetric(float64(app.Annotations.NodeLines), app.Name+"_node_lines")
			b.ReportMetric(float64(app.Annotations.ConfLines), app.Name+"_conf_lines")
		}
	}
}

// --- Table 3: the campaign over all five applications --------------------

// benchCampaign runs one campaign and reports the scoring metrics.
func benchCampaign(b *testing.B, appName string, opts campaign.Options) *campaign.Result {
	app, err := apps.ByName(appName)
	if err != nil {
		b.Fatal(err)
	}
	if opts.Params == nil {
		opts.Params = subsetParams(app)
	}
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		res = campaign.Run(app, opts)
	}
	b.ReportMetric(float64(len(res.Reported)), "reported")
	b.ReportMetric(float64(res.TruePositives), "true_positives")
	b.ReportMetric(float64(res.FalsePositives), "false_positives")
	b.ReportMetric(float64(len(res.Missed)), "missed")
	b.ReportMetric(float64(res.Counts.Executed), "executions")
	return res
}

func BenchmarkTable3CampaignMinihdfs(b *testing.B) { benchCampaign(b, "minihdfs", campaign.Options{}) }
func BenchmarkTable3CampaignMinimr(b *testing.B)   { benchCampaign(b, "minimr", campaign.Options{}) }
func BenchmarkTable3CampaignMiniyarn(b *testing.B) { benchCampaign(b, "miniyarn", campaign.Options{}) }
func BenchmarkTable3CampaignMiniflink(b *testing.B) {
	benchCampaign(b, "miniflink", campaign.Options{})
}
func BenchmarkTable3CampaignMinihbase(b *testing.B) {
	benchCampaign(b, "minihbase", campaign.Options{})
}

// --- Table 5: instance reduction pipeline ---------------------------------

func BenchmarkTable5Reduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range apps.All() {
			run := runner.New(app, runner.Options{})
			gen := testgen.New(app.Schema())
			var pres []testgen.PreRun
			for j := range app.Tests {
				pres = append(pres, run.PreRun(&app.Tests[j]))
			}
			orig := gen.OriginalCount(len(app.Tests), app.NodeTypes)
			afterPre := gen.CountAfterPreRun(pres)
			afterUnc := gen.CountAfterUncertainty(pres)
			b.ReportMetric(float64(orig), app.Name+"_original")
			b.ReportMetric(float64(afterPre), app.Name+"_after_prerun")
			b.ReportMetric(float64(afterUnc), app.Name+"_after_uncertainty")
			if orig < afterPre || afterPre < afterUnc {
				b.Fatalf("%s: reduction pipeline not monotone: %d %d %d", app.Name, orig, afterPre, afterUnc)
			}
		}
	}
}

// --- E1: hypothesis testing filters nondeterministic failures -------------

func BenchmarkHypothesisFiltering(b *testing.B) {
	app, _ := apps.ByName("minihdfs")
	opts := campaign.Options{
		Tests: []string{"TestFlakyLeaseRecovery", "TestFlakyDecommission", "TestWriteRead"},
		Params: []string{minihdfs.ParamReplication, minihdfs.ParamBlockSize,
			minihdfs.ParamDataDir, minihdfs.ParamNameDir,
			minihdfs.ParamDNHandlerCount, minihdfs.ParamClientRetries},
		// Force every instance to a leaf so each one exercises the
		// first-trial gate against the seeded flakiness.
		DisablePooling: true,
	}
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		res = campaign.Run(app, opts)
	}
	b.ReportMetric(float64(res.FirstTrialSignals), "first_trial_signals")
	b.ReportMetric(float64(res.FilteredByHypothesis), "filtered")
	b.ReportMetric(float64(res.FalsePositives), "false_positives")
	if res.FalsePositives > 0 {
		b.Fatalf("hypothesis testing let a flaky failure through: %+v", res.Reported)
	}
}

// --- E2: balance.max.concurrent.moves timing shape -------------------------

// balancerRun times one balancing round, in ticks of its virtual clock,
// with the given concurrent-moves settings of the DataNodes and of the
// Balancer, each side its own configuration object.
func balancerRun(dnMoves, balMoves int64) (int64, error) {
	env := harness.NewEnv(minihdfs.NewRegistry(), nil, 1)
	defer env.Close()
	dnConf := env.RT.NewConf()
	dnConf.SetInt(minihdfs.ParamMaxConcurrentMoves, dnMoves)
	balConf := env.RT.NewConf()
	balConf.SetInt(minihdfs.ParamMaxConcurrentMoves, balMoves)

	cluster, err := minihdfs.StartCluster(env, dnConf, minihdfs.ClusterOptions{DataNodes: 1})
	if err != nil {
		return 0, err
	}
	client, err := cluster.Client(dnConf)
	if err != nil {
		return 0, err
	}
	if err := cluster.WaitActive(client, cluster.ActiveDeadline(dnConf)); err != nil {
		return 0, err
	}
	payload := make([]byte, 1000)
	for i := 0; i < 16; i++ {
		if err := client.WriteFile(fmt.Sprintf("/b%03d", i%30)+fmt.Sprintf("x%d", i/30), payload); err != nil {
			return 0, err
		}
	}
	if _, err := cluster.AddDataNode(); err != nil {
		return 0, err
	}
	if err := cluster.WaitActive(client, cluster.ActiveDeadline(dnConf)); err != nil {
		return 0, err
	}
	bal, err := minihdfs.StartBalancer(env, balConf, "balancer", minihdfs.NNAddr)
	if err != nil {
		return 0, err
	}
	defer bal.Stop()
	sw := simtime.NewStopwatch(env.Scale)
	err = bal.Run()
	return sw.ElapsedTicks(), err
}

// balancerConfigs are the case study's (DataNode, Balancer) settings.
var balancerConfigs = [3][2]int64{{50, 50}, {1, 1}, {1, 50}}

// Example_hdfsBalancer reproduces the max.concurrent.moves case study
// (§7.1; the paper measured 14 s, 16.7 s and 154 s): with the DataNodes at
// 1 and the Balancer at 50, the Balancer's congestion backoff fires on
// nearly every move and the round runs about an order of magnitude slower.
func Example_hdfsBalancer() {
	var ticks [3]int64
	for i, c := range balancerConfigs {
		t, err := balancerRun(c[0], c[1])
		if err != nil {
			fmt.Println(err)
		}
		ticks[i] = t
		fmt.Printf("DN:%-2d Balancer:%-2d %5d ticks\n", c[0], c[1], t)
	}
	fmt.Printf("heterogeneous slowdown vs (1,1): %.1fx\n", float64(ticks[2])/float64(ticks[1]))
	// Output:
	// DN:50 Balancer:50   198 ticks
	// DN:1  Balancer:1    968 ticks
	// DN:1  Balancer:50  7821 ticks
	// heterogeneous slowdown vs (1,1): 8.1x
}

func BenchmarkBalancerConcurrentMoves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ticks [3]int64
		for j, c := range balancerConfigs {
			t, err := balancerRun(c[0], c[1])
			if err != nil {
				b.Fatal(err)
			}
			ticks[j] = t
			b.ReportMetric(float64(t), fmt.Sprintf("ticks_%d_%d", c[0], c[1]))
		}
		b.ReportMetric(float64(ticks[2])/float64(ticks[1]), "hetero_slowdown_x")
	}
}

// --- E3: balance.bandwidthPerSec starvation --------------------------------

func BenchmarkBalancerBandwidth(b *testing.B) {
	run := func(srcBW, dstBW int64) error {
		env := harness.NewEnv(minihdfs.NewRegistry(), nil, 1)
		defer env.Close()
		srcConf := env.RT.NewConf()
		srcConf.SetInt(minihdfs.ParamBalanceBandwidth, srcBW)
		cluster, err := minihdfs.StartCluster(env, srcConf, minihdfs.ClusterOptions{DataNodes: 1})
		if err != nil {
			return err
		}
		client, err := cluster.Client(srcConf)
		if err != nil {
			return err
		}
		if err := cluster.WaitActive(client, cluster.ActiveDeadline(srcConf)); err != nil {
			return err
		}
		payload := make([]byte, 1000)
		// 72 blocks -> 36 moves -> ~3,600 ticks of ingress backlog on the
		// low-limit target, far past the 2,000-tick balancer idle limit.
		for i := 0; i < 72; i++ {
			dir := fmt.Sprintf("/d%d", i/24)
			_ = client.Mkdir(dir)
			if err := client.WriteFile(fmt.Sprintf("%s/f%02d", dir, i%24), payload); err != nil {
				return err
			}
		}
		// The added DataNode gets ITS OWN configuration object with the
		// destination bandwidth (a heterogeneous pair of config files).
		dstConf := env.RT.NewConf()
		dstConf.SetInt(minihdfs.ParamBalanceBandwidth, dstBW)
		if _, err := minihdfs.StartDataNode(env, dstConf, "dn1", minihdfs.NNAddr, minihdfs.DataNodeOptions{}); err != nil {
			return err
		}
		if err := cluster.WaitActive(client, cluster.ActiveDeadline(srcConf)); err != nil {
			return err
		}
		bal, err := minihdfs.StartBalancer(env, srcConf, "balancer", minihdfs.NNAddr)
		if err != nil {
			return err
		}
		defer bal.Stop()
		return bal.Run()
	}
	for i := 0; i < b.N; i++ {
		if err := run(10, 10); err != nil {
			b.Fatalf("homogeneous low bandwidth must balance cleanly: %v", err)
		}
		err := run(1000, 10)
		if err == nil {
			b.Fatalf("heterogeneous bandwidth (high source, low target) did not starve the balancer")
		}
		b.ReportMetric(1, "hetero_timeout")
		b.ReportMetric(0, "homo_timeout")
	}
}

// --- E4: heartbeat heterogeneity and the ordering workaround ---------------

// rolling boots a NameNode and a DataNode, each with its own configuration
// object (its configuration file), then raises dfs.heartbeat.interval from
// 3 to 1000 ticks one node at a time, sender (the DataNode) first or
// receiver (the NameNode) first, and reports whether the NameNode ever
// declared the DataNode dead while the two disagreed.
func rolling(senderFirst bool) (deadObserved bool, err error) {
	env := harness.NewEnv(minihdfs.NewRegistry(), nil, 1)
	defer env.Close()
	nnConf := env.RT.NewConf()
	dnConf := env.RT.NewConf()
	nn, err := minihdfs.StartNameNode(env, nnConf, minihdfs.NNAddr)
	if err != nil {
		return false, err
	}
	defer nn.Stop()
	dn, err := minihdfs.StartDataNode(env, dnConf, "dn0", minihdfs.NNAddr, minihdfs.DataNodeOptions{})
	if err != nil {
		return false, err
	}
	defer dn.Stop()
	client, err := minihdfs.NewClient(env, env.RT.NewConf(), minihdfs.NNAddr)
	if err != nil {
		return false, err
	}

	steps := []*confkit.Conf{nnConf, dnConf}
	if senderFirst {
		steps = []*confkit.Conf{dnConf, nnConf}
	}
	for _, conf := range steps {
		conf.SetInt(minihdfs.ParamHeartbeatInterval, 1000)
		// Watch liveness through one full old dead-detection window.
		for deadline := env.Scale.Now() + 900; env.Scale.Now() < deadline; env.Scale.Sleep(20) {
			st, err := client.Stats()
			if err != nil {
				return deadObserved, err
			}
			deadObserved = deadObserved || st.DeadDNs > 0
		}
	}
	return deadObserved, nil
}

// Example_heartbeatRolling reproduces the dfs.heartbeat.interval finding
// and its workaround (§7.1): midway through a rolling reconfiguration the
// nodes disagree, and raising the interval on the sender first makes the
// NameNode declare a live DataNode dead, which receiver first avoids.
func Example_heartbeatRolling() {
	for _, senderFirst := range []bool{true, false} {
		dead, err := rolling(senderFirst)
		if err != nil {
			fmt.Println(err)
		}
		fmt.Printf("senderFirst=%v: DataNode falsely declared dead: %v\n", senderFirst, dead)
	}
	// Output:
	// senderFirst=true: DataNode falsely declared dead: true
	// senderFirst=false: DataNode falsely declared dead: false
}

func BenchmarkHeartbeatHetero(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, senderFirst := range []bool{true, false} {
			if dead, err := rolling(senderFirst); err != nil || dead != senderFirst {
				b.Fatalf("sender first %v: falsely declared dead %v (%v)", senderFirst, dead, err)
			}
		}
	}
}

// --- E5: the visibility classification principle ---------------------------

func BenchmarkVisibilityClassification(b *testing.B) {
	app, _ := apps.ByName("minihdfs")
	opts := campaign.Options{
		Params: []string{
			minihdfs.ParamIncrementalBRIntvl, // visible via public API -> true
			minihdfs.ParamDUReserved,         // visible via public API -> true
			minihdfs.ParamScanPeriod,         // private state -> FP
			minihdfs.ParamReplWorkMulti,      // private accessor -> FP
		},
		Tests: []string{"TestDeleteVisibility", "TestDUReservedAccounting",
			"TestScanPeriodInternals", "TestReplWorkInternals"},
	}
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		res = campaign.Run(app, opts)
	}
	b.ReportMetric(float64(res.TruePositives), "visible_true")
	b.ReportMetric(float64(res.FalsePositives), "private_fp")
	if res.TruePositives != 2 || res.FalsePositives != 2 {
		b.Fatalf("visibility split = %d true / %d FP, want 2/2 (paper: 7/9 over 16 params)",
			res.TruePositives, res.FalsePositives)
	}
}

// --- E6/E7: mapping statistics ---------------------------------------------

func BenchmarkSharingAndUncertaintyRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range apps.All() {
			run := runner.New(app, runner.Options{})
			confUsing, sharing, uncertain := 0, 0, 0
			for j := range app.Tests {
				rep := run.PreRun(&app.Tests[j]).Report
				if rep.UsedConf {
					confUsing++
					if rep.SharedConf {
						sharing++
					}
				}
				if rep.UncertainConfs > 0 {
					uncertain++
				}
			}
			if confUsing > 0 {
				b.ReportMetric(100*float64(sharing)/float64(confUsing), app.Name+"_sharing_pct")
			}
			b.ReportMetric(100*float64(uncertain)/float64(len(app.Tests)), app.Name+"_uncertain_pct")
		}
	}
}

// --- E8: false-positive traps are reported and scored FP -------------------

func BenchmarkFalsePositiveTraps(b *testing.B) {
	app, _ := apps.ByName("minihdfs")
	opts := campaign.Options{
		Params: []string{minihdfs.ParamImageCompress, minihdfs.ParamScanPeriod, minihdfs.ParamReplWorkMulti},
	}
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		res = campaign.Run(app, opts)
	}
	b.ReportMetric(float64(res.FalsePositives), "trap_fps")
	if res.TruePositives != 0 || res.FalsePositives < 3 {
		b.Fatalf("traps scored %d true / %d FP, want 0/3", res.TruePositives, res.FalsePositives)
	}
}

// --- E9: end-to-end quickstart ---------------------------------------------

// quickstartApp is the smallest target of the Fig. 1 workflow: a wire
// codec both sides must agree on (seeded unsafe), a buffer size only the
// server reads, and one test that boots the server inside the annotated
// init window (Fig. 2b) and exchanges a message with it.
func quickstartApp() *harness.App {
	schema := func() *confkit.Registry {
		r := confkit.NewRegistry()
		r.Register(
			confkit.Param{Name: "wire.codec", Kind: confkit.Enum, Default: "v1",
				Candidates: []string{"v1", "v2"}, Truth: confkit.SafetyUnsafe},
			confkit.Param{Name: "local.buffer", Kind: confkit.Int, Default: "4096"},
		)
		return r
	}
	return &harness.App{
		Name: "quickstart", Schema: schema, NodeTypes: []string{"Server"},
		Tests: []harness.UnitTest{{Name: "TestExchange", Run: func(t *harness.T) {
			tc := t.Env.RT.NewConf()
			t.Env.RT.StartInit("Server")
			sc := tc.RefToClone()
			_ = sc.GetInt("local.buffer")
			t.Env.RT.StopInit()
			if sc.Get("wire.codec") != tc.Get("wire.codec") {
				t.Fatalf("codec mismatch")
			}
		}}},
	}
}

// Example_quickstart runs the Fig. 1 workflow by hand on quickstartApp: a
// pre-run records which nodes start and what each reads, the
// TestGenerator turns that into heterogeneous instances, and the
// TestRunner runs each against its homogeneous control arms. (fmt prints
// a map's keys sorted.)
func Example_quickstart() {
	app := quickstartApp()
	test := &app.Tests[0]
	run := runner.New(app, runner.Options{})
	gen := testgen.New(app.Schema())

	pre := run.PreRun(test)
	fmt.Printf("pre-run %s: nodes %v, Server reads %v\n", pre.Test, pre.Report.NodesStarted, pre.Report.Usage["Server"])
	instances := gen.Instances(pre, testgen.InstancesOptions{})
	unsafe := make(map[string]bool)
	for _, in := range instances {
		if run.RunAssignment(test, gen.AssignFor(in, &pre.Report), in.String()).Verdict == runner.VerdictUnsafe {
			unsafe[in.Param] = true
		}
	}
	fmt.Printf("%d instances, heterogeneous-unsafe %v\n", len(instances), unsafe)
	// Output:
	// pre-run TestExchange: nodes map[Server:1], Server reads map[local.buffer:true wire.codec:true]
	// 10 instances, heterogeneous-unsafe map[wire.codec:true]
}

func BenchmarkEndToEndQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := campaign.Run(quickstartApp(), campaign.Options{})
		if res.TruePositives != 1 || res.FalsePositives != 0 {
			b.Fatalf("quickstart campaign: %d/%d", res.TruePositives, res.FalsePositives)
		}
	}
}

// --- E10: pooled testing ablation ------------------------------------------

// Example_pooledCampaign runs the full miniyarn campaign with and without
// pooled testing (§4's divide and conquer): pooling finds the same true
// positives in under half the executions. Quarantine is off, so the
// counts do not depend on the order items complete in.
func Example_pooledCampaign() {
	for _, flat := range []bool{false, true} {
		app, _ := apps.ByName("miniyarn")
		res := campaign.Run(app, campaign.Options{Seed: 1, QuarantineThreshold: math.MaxInt32, DisablePooling: flat})
		fmt.Printf("DisablePooling: %-5v %4d executions, %d true positives\n", flat, res.Counts.Executed, res.TruePositives)
	}
	// Output:
	// DisablePooling: false  472 executions, 7 true positives
	// DisablePooling: true  1069 executions, 7 true positives
}

func BenchmarkPooledAblation(b *testing.B) {
	app, _ := apps.ByName("miniyarn")
	params := subsetParams(app)
	for i := 0; i < b.N; i++ {
		for _, cfg := range []struct {
			label   string
			disable bool
			maxPool int
		}{
			{"pool_unbounded", false, 0},
			{"pool_4", false, 4},
			{"pool_off", true, 0},
		} {
			a, _ := apps.ByName("miniyarn")
			res := campaign.Run(a, campaign.Options{
				Params: params, DisablePooling: cfg.disable, MaxPool: cfg.maxPool,
			})
			b.ReportMetric(float64(res.Counts.Executed), cfg.label+"_executions")
		}
	}
}

// --- E11: first-trial gate ablation ----------------------------------------

func BenchmarkTrialGateAblation(b *testing.B) {
	app, _ := apps.ByName("miniyarn")
	opts := campaign.Options{Params: []string{"yarn.nodemanager.local-dirs",
		"yarn.nodemanager.log-dirs", "yarn.scheduler.minimum-allocation-mb"}}
	for i := 0; i < b.N; i++ {
		gated := campaign.Run(app, opts)
		app2, _ := apps.ByName("miniyarn")
		opts2 := opts
		opts2.DisableGate = true
		ungated := campaign.Run(app2, opts2)
		b.ReportMetric(float64(gated.Counts.Executed), "gated_executions")
		b.ReportMetric(float64(ungated.Counts.Executed), "ungated_executions")
		if ungated.Counts.Executed <= gated.Counts.Executed {
			b.Fatalf("gating saved nothing: %d vs %d", gated.Counts.Executed, ungated.Counts.Executed)
		}
	}
}

// --- E12: assignment-strategy ablation --------------------------------------

func BenchmarkAssignmentStrategies(b *testing.B) {
	app, _ := apps.ByName("minihdfs")
	opts := campaign.Options{
		Params: []string{minihdfs.ParamPeerProtocolVersion},
		Tests:  []string{"TestWriteRead", "TestPipelineReplication"},
	}
	for i := 0; i < b.N; i++ {
		with := campaign.Run(app, opts)
		app2, _ := apps.ByName("minihdfs")
		opts2 := opts
		opts2.DisableRoundRobin = true
		without := campaign.Run(app2, opts2)
		b.ReportMetric(float64(with.TruePositives), "rr_found")
		b.ReportMetric(float64(without.TruePositives), "flip_only_found")
		if with.TruePositives != 1 || without.TruePositives != 0 {
			b.Fatalf("round-robin ablation: with=%d without=%d, want 1/0",
				with.TruePositives, without.TruePositives)
		}
	}
}

// --- mapping-strategy ablation (paper §6.1 attempt #3) ----------------------

func BenchmarkMappingStrategyAblation(b *testing.B) {
	params := []string{minihdfs.ParamScanPeriod, minihdfs.ParamChecksumType, minihdfs.ParamReplication}
	tests := []string{"TestWriteRead", "TestScanPeriodInternals"}
	for i := 0; i < b.N; i++ {
		app, _ := apps.ByName("minihdfs")
		paper := campaign.Run(app, campaign.Options{Params: params, Tests: tests})
		app2, _ := apps.ByName("minihdfs")
		threadOnly := campaign.Run(app2, campaign.Options{
			Params: params, Tests: tests, Strategy: agent.StrategyThreadOnly,
		})
		b.ReportMetric(float64(paper.FalsePositives), "paper_fps")
		b.ReportMetric(float64(threadOnly.FalsePositives+len(threadOnly.Missed)), "threadonly_fps_plus_missed")
	}
}
