package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/apps/miniyarn"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/flight"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/ledger"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/core/report"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/gid"
	"zebraconf/internal/netsim"
	"zebraconf/internal/obs"
	"zebraconf/internal/rpcsim"
	"zebraconf/internal/simtime"
)

// The ladder prices each module's public functions in isolation, one rung
// per layer metric, so that a change to one layer shows as a moved rung
// before anyone argues about an end-to-end number. Rungs are sized to a
// tenth of a second or so each: the whole ladder runs inside every traced
// run, whatever the workload.

const noopAppName = "benchnoop"

// noopApp is an application whose one test does nothing: dispatching its
// items measures the coordinator and the wire, not any execution.
func noopApp() *harness.App {
	return &harness.App{
		Name:      noopAppName,
		Schema:    func() *confkit.Registry { return confkit.NewRegistry() },
		NodeTypes: []string{"Node"},
		Tests:     []harness.UnitTest{{Name: "TestNoop", Run: func(*harness.T) {}}},
	}
}

// The sinks keep the compiler from discarding a rung's work. The typed
// ones serve the nanosecond rungs, where boxing into `any` would allocate
// and be timed along with the call.
var (
	sink       any
	sinkInt    int64
	sinkUint   uint64
	sinkFloat  float64
	sinkString string
	sinkResult memo.Result
)

// perOp returns the median, over five batches, of the mean wall time of
// one call to fn, in nanoseconds. One untimed call goes first.
func perOp(n int, fn func()) float64 {
	fn()
	const batches = 5
	per := n / batches
	if per < 1 {
		per = 1
	}
	means := make([]float64, batches)
	for b := range means {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		means[b] = float64(time.Since(start).Nanoseconds()) / float64(per)
	}
	return median(means)
}

type ladder struct {
	rc  *runCtx
	dir string
	out map[string]metric
}

// put records one rung; the unit must be the one the metric table gives.
func (l *ladder) put(name, unit string, v float64) {
	if want := lookupMetric(perLayer, name).Unit; want != unit {
		panic("bench: " + name + " measured in " + unit + ", table says " + want)
	}
	l.out[name] = metric{Value: v, Unit: unit}
}

// ns, us and ms record a duration given in nanoseconds.
func (l *ladder) ns(name string, v float64) { l.put(name, "ns", v) }
func (l *ladder) us(name string, v float64) { l.put(name, "us", v/1e3) }
func (l *ladder) ms(name string, v float64) { l.put(name, "ms", v/1e6) }

func runLadder(rc *runCtx) (map[string]metric, error) {
	dir, err := os.MkdirTemp(rc.dir, "ladder-")
	if err != nil {
		return nil, err
	}
	l := &ladder{rc: rc, dir: dir, out: make(map[string]metric)}
	for _, rung := range []func() error{
		l.confRungs, l.simRungs, l.harnessRungs, l.runnerRungs, l.engineRungs,
		l.memoRungs, l.diskcacheRungs, l.distRungs, l.obsRungs, l.artifactRungs,
	} {
		if err := rung(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// confRungs: one configuration read, bare, through the agent's hook with
// an assignment hit, and through the hook with the coverage sink and the
// forensic read trace on; and the goroutine-identity lookup under them.
func (l *ladder) confRungs() error {
	const param = minihdfs.ParamHeartbeatInterval
	assign := map[agent.Key]string{{NodeType: agent.UnitTestEntity, NodeIndex: 0, Param: param}: "7"}
	read := func(opts *agent.Options, n int) float64 {
		rt := confkit.NewRuntime(minihdfs.NewRegistry())
		if opts != nil {
			rt.SetHooks(agent.New(*opts))
		}
		c := rt.NewConf()
		return perOp(n, func() { sinkInt = c.GetTicks(param) })
	}
	l.ns("confkit.get_ns", read(nil, 1_000_000))
	l.ns("agent.intercept_ns", read(&agent.Options{Assign: assign}, 20_000))
	const traced = 10_000
	l.ns("agent.intercept_traced_ns", read(&agent.Options{Assign: assign, Coverage: true, TraceReads: 2 * traced}, traced))
	l.ns("gid.id_ns", perOp(40_000, func() { sinkUint = gid.ID() }))
	return nil
}

// simRungs: what a scaled sleep really costs, and the in-memory network.
func (l *ladder) simRungs() error {
	scale := &simtime.Scale{}
	const ticks = 10
	actual := perOp(100, func() { scale.Sleep(ticks) })
	l.put("simtime.sleep_overshoot_pct", "%", 100*(actual/float64(scale.Dur(ticks).Nanoseconds())-1))

	th := netsim.NewThrottler(scale, 0)
	l.ns("netsim.acquire_ns", perOp(500_000, func() { th.Acquire(4096) }))

	sec := rpcsim.Security{Codec: rpcsim.CodecDeflate, Encrypt: true, Key: "k"}
	payload := make([]byte, 1024)
	var codecErr error
	l.us("rpcsim.codec_us", perOp(200, func() {
		wire, err := rpcsim.Encode(sec, payload)
		if err == nil {
			_, err = rpcsim.Decode(sec, wire)
		}
		if err != nil {
			codecErr = err
		}
	}))
	if codecErr != nil {
		return fmt.Errorf("rpcsim codec: %w", codecErr)
	}

	fabric := rpcsim.NewFabric()
	srv, err := fabric.Serve("echo", rpcsim.Security{}, scale, func(_ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		return err
	}
	defer srv.Close()
	conn, err := fabric.Dial("echo", rpcsim.Security{}, scale)
	if err != nil {
		return err
	}
	var callErr error
	l.us("rpcsim.call_us", perOp(5_000, func() {
		if _, err := conn.Call("echo", payload); err != nil {
			callErr = err
		}
	}))
	if callErr != nil {
		return fmt.Errorf("rpcsim call: %w", callErr)
	}
	return nil
}

// harnessRungs: an environment's construction and teardown, one cheap and
// one wait-bound execution, and the share of the latter spent waiting —
// the number virtual time drives to zero.
func (l *ladder) harnessRungs() error {
	schema := minihdfs.NewRegistry()
	l.us("harness.env_us", perOp(5_000, func() { harness.NewEnv(schema, nil, 1).Close() }))

	app, err := resolveApp("minihdfs")
	if err != nil {
		return err
	}
	once := func(name string, n int) (wallNS float64, waitShare float64, err error) {
		test, err := app.Test(name)
		if err != nil {
			return 0, 0, err
		}
		var walls []float64
		cpu0 := cpuOf(syscall.RUSAGE_SELF)
		for i := 0; i < n; i++ {
			// The outcome is not checked: these minihdfs tests have
			// timing-marginal assertions, and a rung prices time only.
			start := time.Now()
			sink = harness.RunOnce(app, test, agent.Options{}, int64(i))
			walls = append(walls, float64(time.Since(start).Nanoseconds()))
		}
		var total float64
		for _, w := range walls {
			total += w
		}
		return median(walls), 1 - (cpuOf(syscall.RUSAGE_SELF)-cpu0)*1e9/total, nil
	}
	wall, _, err := once("TestWriteRead", 8)
	if err != nil {
		return err
	}
	l.ms("harness.runonce_ms.writeread", wall)
	wall, wait, err := once("TestHeartbeatLiveness", 3)
	if err != nil {
		return err
	}
	l.ms("harness.runonce_ms.heartbeat", wall)
	l.put("harness.wait_share.heartbeat", "ratio", wait)
	return nil
}

// runnerRungs: a pre-run, and Definition 3.1 applied to one instance that
// is safe (decided by the first-trial gate) and one that is convicted
// (confirmation rounds until significance).
func (l *ladder) runnerRungs() error {
	app := miniyarn.App()
	run := runner.New(app, runner.Options{BaseSeed: 1, Seq: stats.SeqSPRT, SeqMargin: -1})
	gen := testgen.New(app.Schema())
	test, err := app.Test("TestTimelineQuery")
	if err != nil {
		return err
	}
	var pre testgen.PreRun
	l.ms("runner.prerun_ms", perOp(5, func() { pre = run.PreRun(test) }))
	// Instance order is deterministic, so the first instance of a parameter
	// is one fixed instance. The first of yarn.http.policy (a scheme flip on
	// the history server) fails every heterogeneous trial; the first of
	// yarn.timeline-service.enabled (the history server alone turned on)
	// passes the first trial, and the gate decides it.
	for _, c := range []struct {
		metric, param string
		verdict       runner.Verdict
	}{
		{"runner.instance_ms.safe", miniyarn.ParamTimelineEnabled, runner.VerdictSafe},
		{"runner.instance_ms.convicted", miniyarn.ParamHTTPPolicy, runner.VerdictUnsafe},
	} {
		var inst *testgen.Instance
		for _, in := range gen.Instances(pre, testgen.InstancesOptions{}) {
			if in.Param == c.param {
				inst = &in
				break
			}
		}
		if inst == nil {
			return fmt.Errorf("%s: TestTimelineQuery generates no instance of %s", c.metric, c.param)
		}
		asn := gen.AssignFor(*inst, &pre.Report)
		var res runner.Result
		l.ms(c.metric, perOp(50, func() { res = run.RunAssignment(test, asn, inst.String()) }))
		if res.Verdict != c.verdict {
			return fmt.Errorf("%s: verdict %v, want %v", inst, res.Verdict, c.verdict)
		}
		if c.verdict == runner.VerdictUnsafe {
			l.put("runner.trials_per_instance", "count", float64(res.Trials))
		}
	}
	return nil
}

// engineRungs: the small pure functions between a pre-run and a verdict.
// Expected to be too small to see end to end; the rungs are how that is
// shown.
func (l *ladder) engineRungs() error {
	app, err := resolveApp("minihdfs")
	if err != nil {
		return err
	}
	test, err := app.Test("TestWriteRead")
	if err != nil {
		return err
	}
	pre := runner.New(app, runner.Options{BaseSeed: 1}).PreRun(test)
	gen := testgen.New(app.Schema())
	l.us("testgen.instances_us", perOp(2_000, func() { sink = gen.Instances(pre, testgen.InstancesOptions{}) }))

	l.ns("stats.fisher_ns", perOp(500_000, func() { sinkFloat = stats.FisherOneSided(9, 0, 0, 18) }))
	seq := stats.NewSeqTest(stats.SeqSPRT, stats.DefaultSignificance, 8, 2)
	l.ns("stats.seq_look_ns", perOp(200_000, func() { _, sinkFloat = seq.Look(3, 3, 0, 0, 6) }))

	preds := make([]float64, 50)
	for i := range preds {
		preds[i] = float64((i * 37) % 50)
	}
	l.us("sched.rank_us", perOp(20_000, func() { sink, _ = sched.Rank(sched.LPT, preds) }))
	q := sched.NewQueue[int](sched.LPT, nil, "bench", "ladder")
	for i, p := range preds {
		q.Push(i, p)
	}
	l.ns("sched.queue_op_ns", perOp(200_000, func() {
		v, _ := q.Pop()
		q.Push(v, preds[v])
	}))
	return nil
}

// ladderKey is a distinct cache key per i.
func ladderKey(i int) memo.Key {
	return memo.Key{App: "bench", Test: fmt.Sprintf("Test%04d", i%50), Assign: fmt.Sprintf("%032x", i), Seed: int64(i)}
}

var ladderResult = memo.Result{Msg: "ok", Reads: []string{"a.b.c", "d.e.f", "g.h.i"}}

func (l *ladder) memoRungs() error {
	cache := memo.NewCache("bench", nil, nil)
	hit := ladderKey(0)
	cache.Do(hit, func() memo.Result { return ladderResult })
	l.ns("memo.do_hit_ns", perOp(500_000, func() { sinkResult, _ = cache.Do(hit, func() memo.Result { return ladderResult }) }))
	i := 0
	l.ns("memo.do_miss_ns", perOp(100_000, func() {
		i++
		sinkResult, _ = cache.Do(ladderKey(i), func() memo.Result { return ladderResult })
	}))
	assign := make(map[agent.Key]string)
	for n := 0; n < 8; n++ {
		assign[agent.Key{NodeType: "DataNode", NodeIndex: n % 2, Param: fmt.Sprintf("dfs.param.%d", n)}] = "v"
	}
	l.ns("memo.hash_assignment_ns", perOp(100_000, func() { sinkString = memo.HashAssignment(assign) }))
	return nil
}

// diskcacheRungs fills a 5,000-entry store, then reopens and probes it.
func (l *ladder) diskcacheRungs() error {
	const entries = 5_000
	dir := filepath.Join(l.dir, "cache")
	store, err := diskcache.Open(dir, 0, nil, nil)
	if err != nil {
		return err
	}
	i := 0
	l.us("diskcache.put_us", perOp(entries, func() {
		store.Put(ladderKey(i), ladderResult)
		i++
	}))
	var openErr error
	l.ms("diskcache.open_ms", perOp(5, func() {
		if store, err = diskcache.Open(dir, 0, nil, nil); err != nil {
			openErr = err
		}
	}))
	if openErr != nil {
		return openErr
	}
	hits, n := 0, 0
	l.us("diskcache.get_hit_us", perOp(2_000, func() {
		n++
		if _, ok := store.Get(ladderKey((n * 7919) % entries)); ok {
			hits++
		}
	}))
	if hits != n {
		return fmt.Errorf("diskcache: %d of %d stored keys found", hits, n)
	}
	l.us("diskcache.get_miss_us", perOp(2_000, func() {
		n++
		sinkResult, _ = store.Get(ladderKey(entries + 10 + n))
	}))
	return nil
}

// distRungs: what going out of process costs with nothing to execute —
// worker spawn and handshake, the dispatch ceiling on no-op items, the
// wire format and the checkpoint journal.
func (l *ladder) distRungs() error {
	items := func(n int) []campaign.WorkItem {
		out := make([]campaign.WorkItem, n)
		for i := range out {
			out[i] = campaign.WorkItem{ID: i, Test: "TestNoop", PreRun: testgen.PreRun{Test: "TestNoop"}}
		}
		return out
	}
	execute := func(n int) (time.Duration, error) {
		cfg := dist.ConfigFrom(pinned(1, 1))
		cfg.Parallel = 1
		coord := dist.New(dist.Options{App: noopAppName, Workers: 2, WorkerCmd: l.rc.workerCmd, Config: cfg,
			SchedPolicy: sched.LPT, ItemRetries: dist.DefaultItemRetries, Stderr: os.Stderr})
		start := time.Now()
		res, err := coord.Execute(obs.NoSpan, items(n))
		took := time.Since(start)
		if err == nil && len(res) != n {
			err = fmt.Errorf("%d of %d no-op items returned", len(res), n)
		}
		if err == nil {
			err = workers.waitReaped()
		}
		return took, err
	}
	var spawns []float64
	for i := 0; i < 3; i++ {
		took, err := execute(2)
		if err != nil {
			return fmt.Errorf("dist no-op: %w", err)
		}
		spawns = append(spawns, float64(took.Nanoseconds()))
	}
	spawn := median(spawns)
	l.ms("dist.worker_spawn_ms", spawn)
	const n = 1_000
	took, err := execute(n + 2)
	if err != nil {
		return fmt.Errorf("dist no-op: %w", err)
	}
	l.put("dist.noop_items_per_s", "1/s", n/((float64(took.Nanoseconds())-spawn)/1e9))
	return nil
}

// obsRungs: one call into each telemetry sink, writing to nowhere.
func (l *ladder) obsRungs() error {
	o := obs.New()
	o.Status = obs.NewStatus()
	o.Events = obs.NewEventLog(io.Discard)
	o.Tracer = obs.NewTracer(io.Discard)
	o.Sampler = obs.NewSampler(o, time.Hour, io.Discard, 0)
	l.ns("obs.counter_ns", perOp(500_000, func() { o.CounterAdd(obs.MSkippedTests, 1, "app", "bench") }))
	l.ns("obs.span_ns", perOp(100_000, func() { o.StartSpan("instance", obs.NoSpan, obs.String("app", "bench")).End() }))
	l.ns("obs.event_ns", perOp(100_000, func() {
		o.Event(obs.EvItemComplete, obs.String("app", "bench"), obs.Int("item", 1), obs.Float("elapsed_s", 0.5))
	}))
	l.us("obs.sample_us", perOp(500, o.Sampler.SampleNow))
	return nil
}

// artifactRungs runs one small fully-instrumented campaign and then
// prices everything that reads or writes its artifacts: forensic
// records, wire messages, the journal, the coverage index, the ledger,
// the reports and the flight analysis.
func (l *ladder) artifactRungs() error {
	dir := filepath.Join(l.dir, "artifacts")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	paths := map[string]string{}
	files := map[string]*os.File{}
	for _, name := range []string{"trace", "events", "perf"} {
		paths[name] = filepath.Join(dir, name+".jsonl")
		f, err := os.Create(paths[name])
		if err != nil {
			return err
		}
		defer f.Close()
		files[name] = f
	}
	o := obs.New()
	o.Status = obs.NewStatus()
	o.Events = obs.NewEventLog(files["events"])
	o.Tracer = obs.NewTracer(files["trace"])
	o.Sampler = obs.NewSampler(o, 20*time.Millisecond, files["perf"], 0)
	o.Sampler.Start()
	app, err := resolveApp("miniflink")
	if err != nil {
		return err
	}
	opts := pinned(1, 1)
	opts.EvidenceMax = 8 << 20
	opts.Obs = o
	opts.CoverageKey = coverageKey
	start := time.Now()
	res := campaign.Run(app, opts)
	o.Sampler.Stop()

	// forensics: one captured execution turned into an admitted record.
	test := &app.Tests[0]
	rec := forensics.NewRecorder(app.Name, -1, nil)
	outcome := harness.RunOnceCaptured(app, test, agent.Options{TraceReads: rec.Spec().ReadEvents}, 1, nil, rec.Spec())
	l.us("forensics.record_us", perOp(2_000, func() {
		sink = rec.Admit(forensics.FromOutcome(app.Name, test.Name, 1, 0, outcome))
	}))

	// dist wire: the run and result messages of every item of the campaign.
	var wireBytes int
	var biggest []byte
	var msg dist.Msg
	for i := range res.Items {
		item := campaign.WorkItem{ID: res.Items[i].ID, Test: res.Items[i].Test, PreRun: res.PreRuns[i]}
		runMsg, err := json.Marshal(dist.Msg{Type: dist.MsgRun, Item: &item})
		if err != nil {
			return err
		}
		resMsg, err := json.Marshal(dist.Msg{Type: dist.MsgResult, Result: &res.Items[i]})
		if err != nil {
			return err
		}
		wireBytes += len(runMsg) + len(resMsg)
		if len(resMsg) > len(biggest) {
			biggest = resMsg
			msg = dist.Msg{Type: dist.MsgResult, Result: &res.Items[i]}
		}
	}
	l.put("dist.wire_bytes_per_item", "B", float64(wireBytes)/float64(len(res.Items)))
	l.us("dist.wire_encode_us", perOp(1_000, func() { sink, _ = json.Marshal(msg) }))
	var decodeErr error
	l.us("dist.wire_decode_us", perOp(200, func() {
		var m dist.Msg
		if err := json.Unmarshal(biggest, &m); err != nil {
			decodeErr = err
		}
	}))
	if decodeErr != nil {
		return decodeErr
	}

	// dist journal: append with the coordinator's batched fsync, then replay.
	journalPath := filepath.Join(dir, "journal.jsonl")
	journal, err := dist.OpenJournal(journalPath, dist.DefaultSyncEvery)
	if err != nil {
		return err
	}
	const appends = 400
	var journalErr error
	n := 0
	l.us("dist.journal_append_us", perOp(appends, func() {
		it := &res.Items[n%len(res.Items)]
		n++
		if err := journal.Append(dist.Record{Kind: dist.KindDone, Item: it.ID, Test: it.Test, Result: it}); err != nil {
			journalErr = err
		}
	}))
	if err := journal.Close(); err != nil && journalErr == nil {
		journalErr = err
	}
	if journalErr != nil {
		return journalErr
	}
	l.ms("dist.journal_read_ms_per_kitem", 1000/float64(n)*perOp(5, func() {
		if _, err := dist.ReadJournal(journalPath); err != nil {
			journalErr = err
		}
	}))
	if journalErr != nil {
		return journalErr
	}

	// coverage index.
	schema := app.Schema()
	var ix *coverage.Index
	l.ms("coverage.build_ms", perOp(20, func() { ix = coverage.Build(app.Name, opts.Seed, opts.CoverageKey, res.Coverage, schema) }))
	if err := coverage.Save(dir, ix); err != nil {
		return err
	}
	var loadErr error
	l.ms("coverage.load_ms", perOp(20, func() {
		if _, err := coverage.Load(dir, app.Name); err != nil {
			loadErr = err
		}
	}))
	if loadErr != nil {
		return loadErr
	}

	// ledger.
	record := ledger.Summarize(res, opts.Seed, start, 0, map[string]string{"policy": coverageKey})
	record.Perf = obs.SummarizePerf(o, res.App, res.Elapsed.Seconds(), 1)
	var ledgerErr error
	l.us("ledger.append_us", perOp(200, func() {
		if err := ledger.Append(dir, record); err != nil {
			ledgerErr = err
		}
	}))
	l.ms("ledger.read_ms", perOp(10, func() {
		if _, err := ledger.Read(dir); err != nil {
			ledgerErr = err
		}
	}))
	if ledgerErr != nil {
		return ledgerErr
	}

	// reports and flight analysis.
	l.ms("report.full_ms", perOp(50, func() { report.Full(io.Discard, res) }))
	var reportErr error
	l.ms("report.json_ms", perOp(20, func() {
		if err := report.JSON(io.Discard, []*campaign.Result{res}); err != nil {
			reportErr = err
		}
	}))
	if reportErr != nil {
		return reportErr
	}
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	l.ms("flight.analyze_ms", perOp(10, func() {
		run, err := flight.Load(paths["trace"], paths["events"], paths["perf"])
		if err != nil {
			reportErr = err
			return
		}
		sink = flight.Analyze(run)
	}))
	return reportErr
}
