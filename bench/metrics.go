package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; bench_test.go holds the
// two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the reference median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Doc defines an end-to-end metric; for a per-layer metric it says how
	// it is measured and which end-to-end metric it should move, on which
	// workload.
	Doc string
}

// endToEnd is what a user of the system pays and a later change is held
// to: time to a verdict, memory, and what it costs to get ready. A metric
// is here only if, on a normal day on the 2-core host this was written on,
// ten runs on ten seeds spread by less than a third of its bound on every
// workload (README.md, "Noise"); the largest bound the driver allows is a
// quarter. exec_per_s and cpu_s_per_kexec do not meet that and are reported
// without a bound (unbounded, below).
var endToEnd = []metricDef{
	{"makespan_s", "s", "lower", 0.25, "median wall time of one pass (time to verdict)"},
	{"alloc_mb_per_kexec", "MB", "lower", 0.25, "Go heap allocated by the workload process per 1000 resolved executions"},
	{"peak_rss_mb", "MB", "lower", 0.25, "median over the first 20 timed passes of the workload process's peak resident set during the pass"},
	{"setup_s", "s", "lower", 0.25, "median time of one set-up: registries, state directories and the workload's fixed preparatory work"},
}

// unbounded is printed by every untraced run next to the end-to-end
// metrics and reported by the traced run as campaign.* layer metrics.
var unbounded = []metricDef{
	{"exec_per_s", "1/s", "higher", 0, "executions resolved (run or cache-served) per second of pass time"},
	{"cpu_s_per_kexec", "s", "lower", 0, "user+sys CPU of the process and its reaped children per 1000 resolved executions"},
}

// perLayer is one row per layer metric, prefix = module.
var perLayer = []metricDef{
	{"confkit.get_ns", "ns", "lower", 0, "ladder: Conf.GetTicks, no hooks → flink-cpu cpu_s_per_kexec"},
	{"gid.id_ns", "ns", "lower", 0, "ladder: gid.ID() → flink-cpu cpu_s_per_kexec, exec_per_s"},
	{"agent.intercept_ns", "ns", "lower", 0, "ladder: GetTicks through the agent hook, assignment hit → flink-cpu cpu_s_per_kexec, exec_per_s; nothing on yarn-wait"},
	{"agent.intercept_traced_ns", "ns", "lower", 0, "ladder: same with coverage sink and read trace on → threeapp-dist2 cpu_s_per_kexec"},
	{"simtime.sleep_overshoot_pct", "%", "lower", 0, "ladder: Scale.Sleep(10) actual ÷ requested − 1 → yarn-wait makespan_s"},
	{"netsim.acquire_ns", "ns", "lower", 0, "ladder: Throttler.Acquire, unlimited rate → threeapp-* cpu_s_per_kexec"},
	{"rpcsim.codec_us", "us", "lower", 0, "ladder: Encode+Decode of 1 KiB, deflate+encrypt → threeapp-* cpu_s_per_kexec (minimr)"},
	{"rpcsim.call_us", "us", "lower", 0, "ladder: Conn.Call echo of 1 KiB → flink-cpu, threeapp-* cpu_s_per_kexec"},
	{"harness.env_us", "us", "lower", 0, "ladder: NewEnv+Close → flink-cpu exec_per_s"},
	{"harness.runonce_ms.writeread", "ms", "lower", 0, "ladder: RunOnce minihdfs TestWriteRead → makespan_s on every workload"},
	{"harness.runonce_ms.heartbeat", "ms", "lower", 0, "ladder: RunOnce minihdfs TestHeartbeatLiveness → yarn-wait makespan_s"},
	{"harness.wait_share.heartbeat", "ratio", "lower", 0, "ladder: 1 − CPU÷wall of the above; the number virtual time drives to 0 → yarn-wait makespan_s"},
	{"apps.body_s", "s", "lower", 0, "spans: Σ UnitTest.Run, traced passes → makespan_s on yarn-wait"},
	{"apps.body_count", "count", "lower", 0, "spans: number of UnitTest.Run calls → exec_per_s everywhere"},
	{"campaign.slot_idle_s", "s", "lower", 0, "spans: slot time with no pre-run or work item on it → makespan_s on threeapp-dist2 (scheduling)"},
	{"campaign.self_s", "s", "lower", 0, "spans: slot time inside pre-runs and items but outside bodies and cache tiers → exec_per_s on flink-cpu"},
	{"campaign.exec_per_s", "1/s", "higher", 0, "untraced passes of the traced run: executions resolved per second of pass time → the reciprocal view of makespan_s"},
	{"campaign.cpu_s_per_kexec", "s", "lower", 0, "untraced passes of the traced run: user+sys CPU, reaped workers included, per 1000 resolved executions → makespan_s on flink-cpu and threeapp-warm"},
	{"runner.prerun_ms", "ms", "lower", 0, "ladder: Runner.PreRun miniyarn TestTimelineQuery → setup_s, exec_per_s on flink-cpu"},
	{"runner.instance_ms.safe", "ms", "lower", 0, "ladder: RunAssignment, instance the first-trial gate passes → exec_per_s on flink-cpu"},
	{"runner.instance_ms.convicted", "ms", "lower", 0, "ladder: RunAssignment, instance convicted by confirmation rounds → exec_per_s on flink-cpu"},
	{"runner.trials_per_instance", "count", "lower", 0, "ladder: trials the convicted instance consumed → makespan_s everywhere"},
	{"testgen.instances_us", "us", "lower", 0, "ladder: Generator.Instances on a minihdfs pre-run → flink-cpu cpu_s_per_kexec (expected too small to see)"},
	{"stats.fisher_ns", "ns", "lower", 0, "ladder: FisherOneSided(9,0,0,18) → flink-cpu cpu_s_per_kexec (expected too small to see)"},
	{"stats.seq_look_ns", "ns", "lower", 0, "ladder: SeqTest.Look, SPRT → flink-cpu cpu_s_per_kexec (expected too small to see)"},
	{"sched.rank_us", "us", "lower", 0, "ladder: Rank(LPT) of 50 predictions → flink-cpu cpu_s_per_kexec (expected too small to see)"},
	{"sched.queue_op_ns", "ns", "lower", 0, "ladder: Queue Pop+Push at depth 50 → flink-cpu cpu_s_per_kexec (expected too small to see)"},
	{"memo.do_hit_ns", "ns", "lower", 0, "ladder: Cache.Do on a completed key → threeapp-warm makespan_s"},
	{"memo.do_miss_ns", "ns", "lower", 0, "ladder: Cache.Do on a fresh key, trivial fn → flink-cpu cpu_s_per_kexec"},
	{"memo.hash_assignment_ns", "ns", "lower", 0, "ladder: HashAssignment of 8 entries → flink-cpu cpu_s_per_kexec"},
	{"memo.served_ratio", "ratio", "higher", 0, "counts: cache-served ÷ resolved over the traced passes → exec_per_s on all"},
	{"diskcache.open_ms", "ms", "lower", 0, "ladder: Open of a 5,000-entry store → threeapp-warm makespan_s"},
	{"diskcache.get_hit_us", "us", "lower", 0, "ladder: Store.Get, stored key → threeapp-warm makespan_s"},
	{"diskcache.get_miss_us", "us", "lower", 0, "ladder: Store.Get, absent key → threeapp-warm setup_s (cold fill)"},
	{"diskcache.put_us", "us", "lower", 0, "ladder: Store.Put → threeapp-warm setup_s"},
	{"diskcache.backend_get_s", "s", "lower", 0, "spans: Σ Get through the timing memo.Backend → threeapp-warm makespan_s"},
	{"diskcache.backend_get_count", "count", "lower", 0, "spans: number of backend Gets → threeapp-warm makespan_s"},
	{"diskcache.backend_put_s", "s", "lower", 0, "spans: Σ Put through the timing memo.Backend → threeapp-warm makespan_s (should stay ≈0: resubmits write nothing)"},
	{"dist.worker_spawn_ms", "ms", "lower", 0, "ladder: Coordinator.Execute of 2 no-op items on 2 fresh workers → threeapp-dist2 setup_s, makespan_s"},
	{"dist.noop_items_per_s", "1/s", "higher", 0, "ladder: dispatch ceiling on 1,000 no-op items, 2 workers → threeapp-dist2 makespan_s"},
	{"dist.wire_encode_us", "us", "lower", 0, "ladder: json.Marshal of the largest result Msg → threeapp-dist2 cpu_s_per_kexec"},
	{"dist.wire_decode_us", "us", "lower", 0, "ladder: json.Unmarshal of the same → threeapp-dist2 cpu_s_per_kexec, alloc_mb_per_kexec"},
	{"dist.wire_bytes_per_item", "B", "lower", 0, "ladder: run + result Msg bytes per item of a miniflink campaign → threeapp-dist2 alloc_mb_per_kexec"},
	{"dist.journal_append_us", "us", "lower", 0, "ladder: Journal.Append with fsync every 8 → threeapp-dist2 makespan_s"},
	{"dist.journal_read_ms_per_kitem", "ms", "lower", 0, "ladder: ReadJournal per 1000 records → resume cost; no workload resumes"},
	{"dist.submit_to_result_s", "s", "lower", 0, "spans: Σ over items, Submit → last worker span of the item → threeapp-dist2 makespan_s"},
	{"obs.counter_ns", "ns", "lower", 0, "ladder: Observer.CounterAdd → threeapp-dist2 cpu_s_per_kexec"},
	{"obs.span_ns", "ns", "lower", 0, "ladder: StartSpan+End → threeapp-dist2 cpu_s_per_kexec, alloc_mb_per_kexec"},
	{"obs.event_ns", "ns", "lower", 0, "ladder: Observer.Event → threeapp-dist2 cpu_s_per_kexec, alloc_mb_per_kexec"},
	{"obs.sample_us", "us", "lower", 0, "ladder: Sampler.SampleNow → threeapp-dist2 cpu_s_per_kexec"},
	{"forensics.record_us", "us", "lower", 0, "ladder: FromOutcome + Recorder.Admit → threeapp-dist2 cpu_s_per_kexec, alloc_mb_per_kexec"},
	{"coverage.build_ms", "ms", "lower", 0, "ladder: coverage.Build of a miniflink campaign → threeapp-dist2 makespan_s"},
	{"coverage.load_ms", "ms", "lower", 0, "ladder: coverage.Load of the same → threeapp-warm makespan_s"},
	{"ledger.append_us", "us", "lower", 0, "ladder: ledger.Append → threeapp-dist2 makespan_s"},
	{"ledger.read_ms", "ms", "lower", 0, "ladder: ledger.Read of 200 records → none (trends mode only)"},
	{"report.full_ms", "ms", "lower", 0, "ladder: report.Full of a miniflink result → threeapp-dist2 makespan_s"},
	{"report.json_ms", "ms", "lower", 0, "ladder: report.JSON of the same → threeapp-dist2 makespan_s"},
	{"flight.analyze_ms", "ms", "lower", 0, "ladder: flight.Load+Analyze of its trace, events and perf files → none (profile mode only)"},
	{"trace.overhead_pct", "%", "lower", 0, "traced ÷ untraced median pass time − 1, same passes; above 10 % the span-derived numbers are suspect"},
}

func lookupMetric(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not in the table") // a bug in this package, not an input
}
