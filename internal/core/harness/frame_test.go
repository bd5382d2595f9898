package harness_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/apps/miniflink"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/rpcsim"
)

// TestRecycledFrameMatchesFresh interleaves executions of unlike kinds on
// one goroutine, so that each runs on a frame the one before it left: a
// trial, a pooled recipe's trial, a captured run, a pre-run with
// callsites, an ablation's pre-run, a test that times out inside a node's
// init window and one that serves, dials, clones and sets. Each
// outcome must be the one scaffolding built new gives (harness.RunFresh),
// and none may share memory with a frame: the outcomes kept read the same
// after every later execution has reused the frames.
func TestRecycledFrameMatchesFresh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one pool list: the frame comes back to this goroutine
	app := func(name string) *harness.App {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	test := func(a *harness.App, name string) *harness.UnitTest {
		u, err := a.Test(name)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	// recipe is the pooled assignment of test's largest pool.
	recipe := func(a *harness.App, u *harness.UnitTest) agent.Assigner {
		pre := harness.RunOnce(a, u, agent.Options{}, 1)
		gen := testgen.New(a.Schema())
		insts := gen.Instances(testgen.PreRun{Test: u.Name, Report: pre.Report}, testgen.InstancesOptions{})
		if len(insts) == 0 {
			t.Fatalf("%s/%s has no instances", a.Name, u.Name)
		}
		return gen.Builder(&pre.Report).Pooled(testgen.BuildPools(u.Name, insts, 0)[0]).Assigner()
	}
	flink, yarn, mr, hbase := app("miniflink"), app("miniyarn"), app("minimr"), app("minihbase")
	// timesOut hangs inside a node's init window, with that node's
	// address bound: state a frame must not carry into the next execution.
	timesOut := &harness.UnitTest{Name: "TestHangsInANodesInit", Timeout: 200 * time.Millisecond, Run: func(t *harness.T) {
		env := t.Env
		conf := env.RT.NewConf()
		env.RT.StartInit("JobManager")
		node := conf.RefToClone()
		addr := node.Get(miniflink.ParamJMAddress)
		if _, err := env.Fabric.Serve(addr, rpcsim.Security{}, env.Scale, nil); err != nil {
			t.Fatalf("serve: %v", err)
		}
		env.Defer(func() { conf.Get("jobmanager.rpc.port") })
		t.Logf("bound %s", addr)
		env.Scale.Sleep(1 << 30) // past the limit: the clock halts
	}}
	// cluster builds what a frame's fabric and runtime hand out again in the
	// next execution: a server bound in a node's init window, a connection,
	// configuration objects made, cloned and set.
	cluster := &harness.UnitTest{Name: "TestServesDialsClonesSets", Run: func(t *harness.T) {
		env := t.Env
		conf := env.RT.NewConf()
		conf.SetInt(miniflink.ParamTaskSlots, int64(1+env.Intn(4)))
		if env.Intn(2) == 0 {
			conf.Set(miniflink.ParamAskTimeout, "30")
		}
		env.RT.StartInit("JobManager")
		jm := conf.RefToClone()
		addr := jm.Get(miniflink.ParamJMAddress)
		srv, err := env.Fabric.Serve(addr, rpcsim.Security{}, env.Scale, func(_ string, p []byte) ([]byte, error) {
			return append(p, jm.Get(miniflink.ParamTaskSlots)...), nil
		})
		env.RT.StopInit()
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		env.Defer(srv.Close)
		conn, err := env.Fabric.Dial(addr, rpcsim.Security{}, env.Scale)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client := conf.Clone()
		resp, err := conn.Call("slots", []byte(client.Get(miniflink.ParamAskTimeout)+"/"))
		if err != nil {
			t.Fatalf("call: %v", err)
		}
		t.Logf("%s answered %s", addr, resp)
		if string(resp) == "30/1" {
			t.Errorf("one task slot")
		}
	}}
	capture := harness.CaptureSpec{LogBytes: 256, ReadEvents: 8}
	trial := agent.Options{Trial: true, Coverage: true}
	steps := []struct {
		app  *harness.App
		test *harness.UnitTest
		opts agent.Options
		seed int64
		spec harness.CaptureSpec
	}{
		{flink, test(flink, "TestFlakyCheckpoint"), trial, 3, harness.CaptureSpec{}},
		{yarn, test(yarn, "TestSubmitApplication"), agent.Options{CoverageSites: true}, 1, harness.CaptureSpec{}},
		{mr, test(mr, "TestWordCount"), agent.Options{Assigner: recipe(mr, test(mr, "TestWordCount")), Trial: true, Coverage: true}, 2, capture},
		{flink, timesOut, agent.Options{Coverage: true}, 4, capture},
		{flink, test(flink, "TestFlakyCheckpoint"), agent.Options{}, 7, harness.CaptureSpec{}},
		{hbase, &hbase.Tests[0], agent.Options{}, 5, capture},
		{yarn, test(yarn, "TestDrainNode"), agent.Options{Assigner: recipe(yarn, test(yarn, "TestDrainNode")), Trial: true, Coverage: true}, 6, harness.CaptureSpec{}},
		{flink, test(flink, "TestFlakyCheckpoint"), agent.Options{Strategy: agent.StrategyThreadOnly}, 8, harness.CaptureSpec{}},
		{flink, cluster, agent.Options{Coverage: true}, 9, capture},
		{flink, cluster, trial, 10, harness.CaptureSpec{}},
		{flink, cluster, agent.Options{}, 11, capture},
	}
	type kept struct {
		out  harness.Outcome
		seen string
	}
	var keep []kept
	envs := make(map[*harness.Env]bool)
	runs := 0
	for round := 0; round < 2; round++ {
		for _, s := range steps {
			body := *s.test
			body.Run = func(t *harness.T) {
				envs[t.Env] = true
				s.test.Run(t)
			}
			got := harness.RunOnceCaptured(s.app, &body, s.opts, s.seed, nil, s.spec)
			want := harness.RunFresh(s.app, s.test, s.opts, s.seed, nil, s.spec)
			runs++
			got.Elapsed, want.Elapsed = 0, 0 // processor time
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s on a recycled frame:\n %+v\nnew scaffolding gives\n %+v", s.app.Name, s.test.Name, got, want)
			}
			if got.Abandoned {
				t.Fatalf("%s/%s was abandoned", s.app.Name, s.test.Name)
			}
			keep = append(keep, kept{got, fmt.Sprintf("%#v", got)})
		}
	}
	if hung := keep[3].out; !hung.TimedOut || len(hung.Logs) != 2 || len(keep[5].out.Reads) == 0 || len(keep[1].out.ReadSites) == 0 {
		t.Fatalf("the steps do not exercise what they say: timed out %v, logs %q, reads %d, sites %d",
			hung.TimedOut, hung.Logs, len(keep[5].out.Reads), len(keep[1].out.ReadSites))
	}
	if served := keep[8].out; len(served.Logs) == 0 || !strings.Contains(served.Logs[len(served.Logs)-1], "answered") || served.Report.NodesStarted["JobManager"] != 1 {
		t.Fatalf("the cluster step did not serve and call: logs %q, nodes %v", served.Logs, served.Report.NodesStarted)
	}
	for i, k := range keep {
		if now := fmt.Sprintf("%#v", k.out); now != k.seen {
			t.Errorf("outcome %d changed after later executions:\n was %s\n now %s", i, k.seen, now)
		}
	}
	if len(envs) == runs {
		t.Fatalf("%d executions ran on %d environments: no frame was recycled", runs, len(envs))
	}
}
