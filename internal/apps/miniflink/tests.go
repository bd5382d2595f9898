package miniflink

import (
	"fmt"
	"strings"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// App returns the miniflink application descriptor. The annotation counts
// are the highest of the five applications (paper Table 4: 30+8): Flink's
// unit tests inline TaskManager initialization, so init windows had to be
// annotated in test code as well as in the node classes.
func App() *harness.App {
	return &harness.App{
		Name:        "miniflink",
		Schema:      schema,
		NodeTypes:   []string{TypeJobManager, TypeTaskManager},
		Annotations: harness.AnnotationStats{NodeLines: 12, ConfLines: 6},
		Tests:       testSuite(),
	}
}

func testSuite() []harness.UnitTest {
	tests := []harness.UnitTest{
		{Name: "TestJobSubmission", Run: testJobSubmission},
		{Name: "TestSlotAllocationExact", Run: testSlotAllocationExact},
		{Name: "TestDataExchange", Run: testDataExchange},
		{Name: "TestCheckpointBarrier", Run: testCheckpointBarrier},
		{Name: "TestInlinedTaskManagerInit", Run: testInlinedTaskManagerInit},
		{Name: "TestUncertainHelperConf", Run: testUncertainHelperConf},
		{Name: "TestAsyncSetupConf", Run: testAsyncSetupConf},
		{Name: "TestMemoryLogInternals", Run: testMemoryLogInternals},
		{Name: "TestFlakyCheckpoint", Run: testFlakyCheckpoint},
	}
	return append(tests, functionLevelTests()...)
}

// startFlink boots a JobManager and n TaskManagers over the test's shared
// configuration object.
func startFlink(t *harness.T, tms int) (*JobManager, []*TaskManager, *confkit.Conf) {
	conf := t.Env.RT.NewConf()
	jm, err := StartJobManager(t.Env, conf)
	t.NoErr(err, "start jobmanager")
	t.Env.Defer(jm.Stop)
	var workers []*TaskManager
	for i := 0; i < tms; i++ {
		tm, err := StartTaskManager(t.Env, conf, fmt.Sprintf("tm%d", i), conf.Get(ParamJMAddress))
		t.NoErr(err, "start taskmanager")
		t.Env.Defer(tm.Stop)
		workers = append(workers, tm)
	}
	return jm, workers, conf
}

// submit drives a job through the client connection (the unit test's own
// configuration).
func submit(t *harness.T, conf *confkit.Conf, jobID string, parallelism int64) error {
	conn, err := t.Env.Fabric.Dial(conf.Get(ParamJMAddress), controlSecurity(conf), t.Env.Scale)
	if err != nil {
		return err
	}
	return MethodSubmitJob.Call(conn, SubmitJobReq{JobID: jobID, Parallelism: parallelism})
}

func testJobSubmission(t *harness.T) {
	_, tms, conf := startFlink(t, 2)
	t.NoErr(submit(t, conf, "job-1", 2), "submit 2-task job")
	total := 0
	for _, tm := range tms {
		total += tm.DeployedTasks()
	}
	if total != 2 {
		t.Fatalf("deployed %d tasks, want 2", total)
	}
}

// testSlotAllocationExact fills the cluster exactly per the CLIENT's slot
// assumption; a TaskManager with fewer slots (or a JobManager assuming
// fewer) breaks the deployment (Table 3: taskmanager.numberOfTaskSlots).
func testSlotAllocationExact(t *harness.T) {
	_, tms, conf := startFlink(t, 2)
	parallelism := int64(len(tms)) * conf.GetInt(ParamTaskSlots)
	t.NoErr(submit(t, conf, "job-full", parallelism), "fill every assumed slot")
}

// testDataExchange ships records between TaskManagers over the data plane
// (Table 3: taskmanager.data.ssl.enabled).
func testDataExchange(t *harness.T) {
	_, tms, _ := startFlink(t, 2)
	records := []string{"r1", "r2", "r3"}
	t.NoErr(tms[0].SendTo("tm1-data", records), "exchange records tm0 -> tm1")
	if got := tms[1].Received(); len(got) != len(records) {
		t.Fatalf("tm1 received %v, want %v", got, records)
	}
}

// testCheckpointBarrier triggers a checkpoint and expects an ack from
// every TaskManager with its configured state backend.
func testCheckpointBarrier(t *harness.T) {
	_, tms, conf := startFlink(t, 2)
	t.NoErr(submit(t, conf, "job-ck", 2), "submit job")
	conn, err := t.Env.Fabric.Dial(conf.Get(ParamJMAddress), controlSecurity(conf), t.Env.Scale)
	t.NoErr(err, "dial jobmanager")
	acks, err := MethodTriggerCheckpoint.Call(conn, CheckpointReq{CheckpointID: 1})
	t.NoErr(err, "trigger checkpoint")
	if len(acks) != len(tms) {
		t.Fatalf("checkpoint acked by %d of %d taskmanagers", len(acks), len(tms))
	}
	for _, ack := range acks {
		if ack.Backend == "" {
			t.Fatalf("taskmanager %s acked without a state backend", ack.TMID)
		}
	}
}

// testInlinedTaskManagerInit reproduces Flink's unit-test idiom (§7.2):
// the test does not call the node's init function; it inlines the
// initialization code — including, after instrumentation, the agent's init
// window and the reference-clone replacement.
func testInlinedTaskManagerInit(t *harness.T) {
	conf := t.Env.RT.NewConf()
	jm, err := StartJobManager(t.Env, conf)
	t.NoErr(err, "start jobmanager")
	t.Env.Defer(jm.Stop)

	// --- begin inlined TaskManager initialization (annotated by hand) ---
	t.Env.RT.StartInit(TypeTaskManager)
	tmConf := conf.RefToClone()
	tm, err := ConstructTaskManager(t.Env, tmConf, "tm-inline", conf.Get(ParamJMAddress))
	t.Env.RT.StopInit()
	// --- end inlined initialization ---
	t.NoErr(err, "inlined taskmanager init")
	t.Env.Defer(tm.Stop)

	t.NoErr(submit(t, conf, "job-inline", 1), "submit to the inlined taskmanager")
}

// testUncertainHelperConf creates a configuration object on an unannotated
// helper goroutine after nodes have started: no rule can place it, so the
// pre-run records it as uncertain and ZebraConf excludes the parameters it
// reads (paper Observation 3). Flink's suite has enough of these to make
// it the ~10% uncertainty outlier of §6.2.
func testUncertainHelperConf(t *harness.T) {
	_, _, conf := startFlink(t, 1)
	helper := t.Env.Scale.NewGroup(nil) // deliberately NOT through RT.Go: ownership is lost
	var backend string
	helper.Go(func() {
		helperConf := t.Env.RT.NewConf()
		backend = helperConf.Get(ParamStateBackend)
	})
	helper.Wait()
	if backend == "" {
		t.Fatalf("helper goroutine read no state backend")
	}
	t.NoErr(submit(t, conf, "job-helper", 1), "submit after helper setup")
}

// testAsyncSetupConf is a second uncertainty source: a detached setup
// goroutine reads tuning parameters through an unmappable object.
func testAsyncSetupConf(t *harness.T) {
	_, _, conf := startFlink(t, 1)
	setup := t.Env.Scale.NewGroup(nil) // not through RT.Go either
	var buffers int64
	setup.Go(func() {
		helperConf := t.Env.RT.NewConf()
		buffers = helperConf.GetInt(ParamNetBuffers)
		_ = helperConf.Get(ParamNetFraction)
	})
	setup.Wait()
	if buffers <= 0 {
		t.Fatalf("async setup read no buffer count")
	}
	t.NoErr(submit(t, conf, "job-async", 1), "submit after async setup")
}

// testMemoryLogInternals is the §7.1 private-state trap.
func testMemoryLogInternals(t *harness.T) {
	_, tms, conf := startFlink(t, 1)
	if got, want := tms[0].MemoryLogEnabled(), conf.GetBool(ParamMemoryLog); got != want {
		t.Fatalf("taskmanager private memory-log flag %v != client-configured %v", got, want)
	}
}

// testFlakyCheckpoint fails nondeterministically.
func testFlakyCheckpoint(t *harness.T) {
	_, _, conf := startFlink(t, 2)
	t.NoErr(submit(t, conf, "job-ckpt", 2), "submit job")
	if t.Env.Float64() < 0.2 {
		t.Fatalf("simulated race: checkpoint barrier overtaken by records")
	}
}

func functionLevelTests() []harness.UnitTest {
	return []harness.UnitTest{
		{Name: "TestControlSecurityDerivation", Run: func(t *harness.T) {
			conf := t.Env.RT.NewConf()
			if controlSecurity(conf).Encrypt {
				t.Fatalf("control plane encrypted by default")
			}
			conf.SetBool(ParamAkkaSSL, true)
			if !controlSecurity(conf).Encrypt {
				t.Fatalf("akka.ssl.enabled not honoured")
			}
		}},
		{Name: "TestWirePayloadRoundTrip", Run: func(t *harness.T) {
			sec := rpcsim.Security{Encrypt: true, Key: "k"}
			wire, err := rpcsim.Encode(sec, []byte("records"))
			t.NoErr(err, "encode")
			out, err := rpcsim.Decode(sec, wire)
			t.NoErr(err, "decode")
			if string(out) != "records" {
				t.Fatalf("round trip produced %q", out)
			}
		}},
		{Name: "TestWireMismatchFails", Run: func(t *harness.T) {
			wire, err := rpcsim.Encode(rpcsim.Security{Encrypt: true, Key: "k"}, []byte("records"))
			t.NoErr(err, "encode")
			if _, err := rpcsim.Decode(rpcsim.Security{}, wire); err == nil {
				t.Fatalf("plaintext decode of an encrypted record succeeded")
			}
		}},
		{Name: "TestRegistryDefaults", Run: func(t *harness.T) {
			conf := t.Env.RT.NewConf()
			if conf.GetInt(ParamTaskSlots) < 1 {
				t.Fatalf("bad default slot count")
			}
			if !strings.Contains(conf.Get(ParamJMAddress), "jm") {
				t.Fatalf("unexpected jobmanager address %q", conf.Get(ParamJMAddress))
			}
		}},
	}
}
