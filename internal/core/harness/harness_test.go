package harness

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/simtime"
)

func emptySchema() *confkit.Registry { return confkit.NewRegistry() }

func TestEnvDeferLIFOAndIdempotentClose(t *testing.T) {
	t.Parallel()
	env := NewEnv(emptySchema(), nil, 1)
	var order []int
	env.Defer(func() { order = append(order, 1) })
	env.Defer(func() { order = append(order, 2) })
	env.Close()
	env.Close() // idempotent
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("cleanup order = %v, want LIFO", order)
	}
}

func TestEnvCloseSurvivesPanickingCleanup(t *testing.T) {
	t.Parallel()
	env := NewEnv(emptySchema(), nil, 1)
	ran := false
	env.Defer(func() { ran = true })
	env.Defer(func() { panic("cleanup bug") })
	env.Close()
	if !ran {
		t.Fatal("a panicking cleanup aborted the rest")
	}
}

func TestEnvRandDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	a := NewEnv(emptySchema(), nil, 42)
	b := NewEnv(emptySchema(), nil, 42)
	c := NewEnv(emptySchema(), nil, 43)
	va, vb, vc := a.Float64(), b.Float64(), c.Float64()
	if va != vb {
		t.Fatal("same seed produced different streams")
	}
	if va == vc {
		t.Fatal("different seeds produced identical first draws")
	}
	if n := a.Intn(10); n < 0 || n >= 10 {
		t.Fatalf("Intn out of range: %d", n)
	}
}

// The source is built on the first draw, from the same seed: these are the
// draws Env made when NewEnv built it, so no seeded verdict can have moved.
func TestEnvRandFirstDrawsPinned(t *testing.T) {
	t.Parallel()
	e := NewEnv(emptySchema(), nil, 42)
	if f, n := e.Float64(), e.Intn(1000); f != 0.3730283610466326 || n != 987 {
		t.Fatalf("seed 42, Float64 first: drew %v then Intn(1000) = %d", f, n)
	}
	if f, n, big := e.Float64(), e.Intn(10), e.Intn(1<<40); f != 0.604093851558642 || n != 0 || big != 959163784457 {
		t.Fatalf("seed 42, later draws: %v, %d, %d", f, n, big)
	}
	e = NewEnv(emptySchema(), nil, 42)
	if n, f := e.Intn(1000), e.Float64(); n != 305 || f != 0.06600049679351791 {
		t.Fatalf("seed 42, Intn first: drew %d then Float64 = %v", n, f)
	}
}

// drawer is what Env and *rand.Rand share: the draws a test makes.
type drawer interface {
	Float64() float64
	Intn(n int) int
}

// mixedDraw makes the i-th draw of a sequence mixing the draws and their
// ranges: Intn(10) takes one source value, Intn(1<<40) takes Int63n's path.
func mixedDraw(d drawer, i int) float64 {
	switch i % 3 {
	case 0:
		return d.Float64()
	case 1:
		return float64(d.Intn(10))
	default:
		return float64(d.Intn(1 << 40))
	}
}

var sinkFloat float64

// An Env's stream must be rand.New(rand.NewSource(seed))'s call for call —
// with another Env of the seed drawing in between, with eight Envs drawing
// at once, and across Close — and the first draw of a recycled execution
// must re-seed the Env's source, not build one. Not parallel: the
// allocation bound is read off the process's counters.
func TestEnvRandStreamIsMathRand(t *testing.T) {
	const n = 30
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		ref := rand.New(rand.NewSource(seed))
		want := make([]float64, n)
		for i := range want {
			want[i] = mixedDraw(ref, i)
		}
		check := func(how string, got []float64) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Errorf("seed %d, %s: drew %v, want %v", seed, how, got, want)
			}
		}

		a, b := NewEnv(emptySchema(), nil, seed), NewEnv(emptySchema(), nil, seed)
		var gotA, gotB []float64
		for i := range n {
			gotA = append(gotA, mixedDraw(a, i))
			gotB = append(gotB, mixedDraw(b, i))
		}
		check("alternating with another Env, the first", gotA)
		check("alternating with another Env, the second", gotB)

		var wg sync.WaitGroup
		got := make([][]float64, 8)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e := NewEnv(emptySchema(), nil, seed)
				for i := range n {
					got[g] = append(got[g], mixedDraw(e, i))
				}
			}()
		}
		wg.Wait()
		for g := range got {
			check(fmt.Sprintf("Env %d of 8 on goroutines of their own", g), got[g])
		}

		e := NewEnv(emptySchema(), nil, seed)
		var gotC []float64
		for i := range n {
			if i == n/2 {
				e.Close()
			}
			gotC = append(gotC, mixedDraw(e, i))
		}
		check("closed halfway", gotC)
	}

	if raceEnabled {
		return
	}
	e := NewEnv(emptySchema(), nil, 42)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.seeded = false // one draw per op, as a flaky test makes
			sinkFloat = e.Float64()
		}
	})
	if bytes := res.AllocedBytesPerOp(); bytes >= 512 {
		t.Fatalf("a draw allocated %d B, want under 512: it built a source", bytes)
	}
}

func TestTFatalfAborts(t *testing.T) {
	t.Parallel()
	tt := &T{Env: NewEnv(emptySchema(), nil, 1)}
	aborted := true
	func() {
		defer func() { _ = recover() }()
		tt.Fatalf("boom %d", 7)
		aborted = false
	}()
	if !aborted {
		t.Fatal("Fatalf did not abort")
	}
	if !tt.Failed() {
		t.Fatal("Fatalf did not mark failed")
	}
	if logs := tt.Logs(); len(logs) != 1 || logs[0] != "boom 7" {
		t.Fatalf("logs = %v", logs)
	}
}

func TestTErrorfContinues(t *testing.T) {
	t.Parallel()
	tt := &T{Env: NewEnv(emptySchema(), nil, 1)}
	tt.Errorf("first")
	tt.Logf("note")
	if !tt.Failed() || len(tt.Logs()) != 2 {
		t.Fatalf("state after Errorf: failed=%v logs=%v", tt.Failed(), tt.Logs())
	}
}

func TestTNoErr(t *testing.T) {
	t.Parallel()
	tt := &T{Env: NewEnv(emptySchema(), nil, 1)}
	tt.NoErr(nil, "fine")
	if tt.Failed() {
		t.Fatal("NoErr(nil) failed")
	}
}

func TestLogRingEvictsTailNeverHead(t *testing.T) {
	t.Parallel()
	tt := &T{Env: NewEnv(emptySchema(), nil, 1), logCap: 40}
	tt.Errorf("head message")
	for i := 0; i < 10; i++ {
		tt.Logf("tail-%02d--------", i) // 15 bytes each
	}
	logs := tt.Logs()
	if logs[0] != "head message" {
		t.Fatalf("head evicted: logs[0] = %q", logs[0])
	}
	bytes, msgs := tt.LogDropped()
	if bytes == 0 || msgs == 0 {
		t.Fatal("overflowing ring reported no drops")
	}
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	if total > 40+15 { // cap plus at most one in-flight message
		t.Fatalf("ring retains %d bytes past the cap", total)
	}
	if logs[len(logs)-1] != "tail-09--------" {
		t.Fatalf("newest message lost: %v", logs)
	}
}

func TestLogRingOversizedMessageKeepsHeadAndTail(t *testing.T) {
	t.Parallel()
	tt := &T{Env: NewEnv(emptySchema(), nil, 1), logCap: 8}
	tt.Errorf("head")
	tt.Logf("one enormous message far past the cap")
	tt.Logf("final")
	logs := tt.Logs()
	// Eviction stops at head+tail, so even oversized messages leave a story.
	if len(logs) != 2 || logs[0] != "head" || logs[1] != "final" {
		t.Fatalf("logs = %v, want [head final]", logs)
	}
	if _, msgs := tt.LogDropped(); msgs != 1 {
		t.Fatalf("dropped msgs = %d, want 1", msgs)
	}
}

func TestLogRingDisabledWithoutCap(t *testing.T) {
	t.Parallel()
	tt := &T{Env: NewEnv(emptySchema(), nil, 1)}
	for i := 0; i < 100; i++ {
		tt.Logf("message %03d with some padding", i)
	}
	if logs := tt.Logs(); len(logs) != 100 {
		t.Fatalf("uncapped T dropped logs: %d retained", len(logs))
	}
	if bytes, msgs := tt.LogDropped(); bytes != 0 || msgs != 0 {
		t.Fatalf("uncapped T reported drops: %d bytes, %d msgs", bytes, msgs)
	}
}

func capturedApp() *App {
	schema := func() *confkit.Registry {
		return confkit.NewRegistry().Register(confkit.Param{
			Name: "cap.param", Kind: confkit.String, Default: "dflt",
		})
	}
	return &App{
		Name:      "t-app",
		Schema:    schema,
		NodeTypes: []string{"N"},
		Tests: []UnitTest{{
			Name: "C",
			Run: func(tt *T) {
				conf := tt.Env.RT.NewConf()
				for i := 0; i < 4; i++ {
					tt.Logf("read %d -> %s", i, conf.Get("cap.param"))
				}
				tt.Fatalf("always fails")
			},
		}},
	}
}

func TestRunOnceCapturedRecordsLogAndReads(t *testing.T) {
	t.Parallel()
	app := capturedApp()
	opts := agent.Options{Assign: map[agent.Key]string{
		{NodeType: agent.UnitTestEntity, NodeIndex: 0, Param: "cap.param"}: "hetero",
	}}
	spec := CaptureSpec{LogBytes: 1 << 10, ReadEvents: 2}
	out := RunOnceCaptured(app, &app.Tests[0], opts, 1, nil, spec)
	if !out.Failed || out.Msg != "read 0 -> hetero" {
		t.Fatalf("outcome = %+v", out)
	}
	if len(out.Logs) != 5 || out.Logs[0] != out.Msg {
		t.Fatalf("logs = %v", out.Logs)
	}
	if len(out.Reads) != 2 || out.ReadsDropped != 2 {
		t.Fatalf("reads = %v (dropped %d), want 2 recorded + 2 dropped", out.Reads, out.ReadsDropped)
	}
	for _, r := range out.Reads {
		if r.Entity != agent.UnitTestEntity || r.Value != "hetero" || !r.Overridden || !r.Found {
			t.Fatalf("read event = %+v", r)
		}
		if r.Callsite == "" {
			t.Fatalf("read event missing callsite: %+v", r)
		}
	}

	// Capture off: same Msg (the ring head is stable), no capture fields.
	bare := RunOnce(capturedApp(), &app.Tests[0], opts, 1)
	if bare.Msg != out.Msg {
		t.Fatalf("capture changed Msg: %q vs %q", bare.Msg, out.Msg)
	}
	if bare.Logs != nil || bare.Reads != nil || bare.ReadsDropped != 0 {
		t.Fatalf("capture-off outcome carries capture fields: %+v", bare)
	}
}

func appWith(test UnitTest) *App {
	return &App{
		Name:      "t-app",
		Schema:    emptySchema,
		NodeTypes: []string{"N"},
		Tests:     []UnitTest{test},
	}
}

func TestRunOncePassAndFail(t *testing.T) {
	t.Parallel()
	pass := appWith(UnitTest{Name: "P", Run: func(tt *T) {}})
	out := RunOnce(pass, &pass.Tests[0], agent.Options{}, 1)
	if out.Failed {
		t.Fatalf("passing test reported failure: %s", out.Msg)
	}
	fail := appWith(UnitTest{Name: "F", Run: func(tt *T) { tt.Fatalf("expected failure") }})
	out = RunOnce(fail, &fail.Tests[0], agent.Options{}, 1)
	if !out.Failed || out.Msg != "expected failure" {
		t.Fatalf("failing test outcome: %+v", out)
	}
}

func TestRunOnceRecoversPanic(t *testing.T) {
	t.Parallel()
	app := appWith(UnitTest{Name: "P", Run: func(tt *T) { panic("unexpected") }})
	out := RunOnce(app, &app.Tests[0], agent.Options{}, 1)
	if !out.Failed {
		t.Fatal("panicking test not marked failed")
	}
}

func TestRunOnceTimeoutRunsCleanups(t *testing.T) {
	t.Parallel()
	cleaned := make(chan struct{}, 1)
	app := appWith(UnitTest{
		Name:    "Hang",
		Timeout: 50 * time.Millisecond,
		Run: func(tt *T) {
			tt.Env.Defer(func() { cleaned <- struct{}{} })
			select {} // hang forever
		},
	})
	out := RunOnce(app, &app.Tests[0], agent.Options{}, 1)
	if !out.Failed || !out.TimedOut {
		t.Fatalf("hanging test outcome: %+v", out)
	}
	select {
	case <-cleaned:
	case <-time.After(time.Second):
		t.Fatal("environment cleanups did not run after a timeout")
	}
}

// A body that hangs inside a node's init window times out, and its cleanup
// runs on a helper goroutine after the clock's shutdown. That goroutine is
// no member of the execution: the conf it creates is not the node's (the
// body's identity must not outlive the clock) and not the unit test's (a
// node has started), so it and the parameter read through it are uncertain
// — the report the stack-trace identity gave, where the helper's goroutine
// ID was simply unknown.
func TestRunOnceTimedOutCleanupConfIsUncertain(t *testing.T) {
	t.Parallel()
	app := capturedApp()
	app.Tests = []UnitTest{{
		Name: "HangInInit",
		Run: func(tt *T) {
			rt := tt.Env.RT
			rt.StartInit("N")
			rt.NewConf().Get("cap.param")
			tt.Env.Defer(func() { rt.NewConf().Get("cap.param") })
			tt.Env.Scale.Wait(simtime.Forever, tt.Env.Scale.NewSignal())
		},
	}}
	out := RunOnce(app, &app.Tests[0], agent.Options{}, 1)
	if !out.TimedOut {
		t.Fatalf("outcome: %+v", out)
	}
	want := agent.Report{
		NodesStarted:    map[string]int{"N": 1},
		Usage:           map[string]map[string]bool{"N": {"cap.param": true}},
		UncertainParams: []string{"cap.param"},
		UncertainConfs:  1,
		TotalConfs:      2,
		UsedConf:        true,
	}
	if !reflect.DeepEqual(out.Report, want) {
		t.Fatalf("report\n  %+v\nwant\n  %+v", out.Report, want)
	}
}

func TestAppTestLookup(t *testing.T) {
	t.Parallel()
	app := appWith(UnitTest{Name: "Only", Run: func(*T) {}})
	if _, err := app.Test("Only"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Test("Missing"); err == nil {
		t.Fatal("missing test resolved")
	}
	if names := app.TestNames(); len(names) != 1 || names[0] != "Only" {
		t.Fatalf("TestNames = %v", names)
	}
}

// A body parked forever on a signal nobody fires is a deadlock: nothing is
// runnable and no timer is pending. The clock halts and the execution is
// reported TimedOut at once, not after the 15 s the default timeout would
// take on a wall clock; the parked body is ended, so nothing leaks.
func TestRunOnceDeadlockTimesOutAtOnce(t *testing.T) {
	t.Parallel()
	var scale *simtime.Scale
	unwound := make(chan struct{})
	app := appWith(UnitTest{Name: "Deadlock", Run: func(tt *T) {
		defer close(unwound)
		scale = tt.Env.Scale
		scale.Sleep(7)
		scale.Wait(simtime.Forever, scale.NewSignal())
	}})
	start := time.Now()
	out := RunOnce(app, &app.Tests[0], agent.Options{}, 1)
	if wall := time.Since(start); wall > 100*time.Millisecond {
		t.Fatalf("a deadlocked body took %v of wall time to be reported", wall)
	}
	if !out.Failed || !out.TimedOut || out.ElapsedTicks != 7 {
		t.Fatalf("outcome = %+v, want a timeout at tick 7", out)
	}
	select {
	case <-unwound:
	default:
		t.Fatal("the parked body was not ended")
	}
	if scale.Live() != 0 {
		t.Fatalf("%d goroutines left in the census", scale.Live())
	}
}

// The timeout is a virtual deadline of timeout/DefaultTick ticks: a body
// that keeps waiting is cut off exactly there, for free, and its cleanups
// still run.
func TestRunOnceVirtualDeadlineIsExact(t *testing.T) {
	t.Parallel()
	cleaned := false
	app := appWith(UnitTest{
		Name:    "Forever",
		Timeout: 50 * time.Millisecond, // 500 ticks
		Run: func(tt *T) {
			tt.Env.Defer(func() { cleaned = true })
			for {
				tt.Env.Scale.Sleep(7)
			}
		},
	})
	start := time.Now()
	out := RunOnce(app, &app.Tests[0], agent.Options{}, 1)
	if !out.TimedOut || out.Msg != "test timed out after 50ms" {
		t.Fatalf("outcome = %+v", out)
	}
	if out.ElapsedTicks != 497 { // the last multiple of 7 before the limit
		t.Fatalf("halted at tick %d, want 497", out.ElapsedTicks)
	}
	if wall := time.Since(start); wall > 40*time.Millisecond {
		t.Fatalf("a 50 ms virtual timeout took %v of wall time", wall)
	}
	if !cleaned {
		t.Fatal("cleanups did not run after a virtual timeout")
	}
}

// A body that spins without ever touching the clock holds the baton
// forever; only the wall-clock watchdog can report it, and it counts as
// abandoned until it returns.
func TestRunOnceWatchdogCatchesSpinningBody(t *testing.T) {
	t.Parallel()
	var release atomic.Bool
	returned := make(chan struct{})
	app := appWith(UnitTest{
		Name:    "Spin",
		Timeout: 30 * time.Millisecond,
		Run: func(tt *T) {
			defer close(returned)
			for !release.Load() {
				runtime.Gosched()
			}
		},
	})
	out := RunOnce(app, &app.Tests[0], agent.Options{}, 1)
	if !out.Failed || !out.TimedOut {
		t.Fatalf("spinning body outcome: %+v", out)
	}
	if !out.Abandoned {
		t.Fatal("a body the clock could not end was not counted as abandoned")
	}
	release.Store(true)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("released body never returned")
	}
}

// Time in an execution is virtual: ElapsedTicks is what the body waited,
// Elapsed is what it cost.
func TestRunOnceElapsedTicks(t *testing.T) {
	t.Parallel()
	app := appWith(UnitTest{Name: "Sleeper", Run: func(tt *T) { tt.Env.Scale.Sleep(120000) }}) // 12 s at the default tick
	out := RunOnce(app, &app.Tests[0], agent.Options{}, 1)
	if out.Failed || out.ElapsedTicks != 120000 {
		t.Fatalf("outcome = %+v, want 120000 elapsed ticks", out)
	}
	if out.Elapsed > time.Second {
		t.Fatalf("120000 virtual ticks cost %v of wall time", out.Elapsed)
	}
}

// The body tears the environment down on the tick it returns: a node loop
// due later never runs, so what it would have read is in no execution's
// read set — the pre-run nondeterminism ROADMAP's "Fix first" describes.
// Goroutines teardown does not stop are ended with the clock.
func TestRunOnceNoLoopRunsAfterTheBodyReturns(t *testing.T) {
	t.Parallel()
	schema := func() *confkit.Registry {
		return confkit.NewRegistry().
			Register(confkit.Param{Name: "early", Kind: confkit.String, Default: "e"}).
			Register(confkit.Param{Name: "late", Kind: confkit.String, Default: "l"})
	}
	var scale *simtime.Scale
	app := &App{Name: "t-app", Schema: schema, NodeTypes: []string{"N"}, Tests: []UnitTest{{
		Name: "Short",
		Run: func(tt *T) {
			env := tt.Env
			scale = env.Scale
			env.RT.StartInit("N")
			conf := env.RT.NewConf()
			stop := env.Scale.NewSignal()
			loops := env.NewGroup()
			loops.Go(func() { // a monitor: reads its threshold after the first wake-up
				for !env.Scale.Wait(1, stop) {
					_ = conf.Get("late")
				}
			})
			env.RT.Go(func() { env.Scale.Wait(simtime.Forever, env.Scale.NewSignal()) }) // never stopped by anyone
			env.RT.StopInit()
			env.Defer(func() { stop.Fire(); loops.Wait() })
			_ = conf.Get("early")
		},
	}}}
	for i := 0; i < 200; i++ {
		out := RunOnce(app, &app.Tests[0], agent.Options{Coverage: true}, int64(i))
		if out.Failed || out.ElapsedTicks != 0 {
			t.Fatalf("run %d: %+v", i, out)
		}
		if got := out.Report.Usage["N"]; !got["early"] || got["late"] {
			t.Fatalf("run %d: node read set %v, want early only", i, got)
		}
		if len(out.ReadParams) != 1 || out.ReadParams[0] != "early" {
			t.Fatalf("run %d: ReadParams = %v", i, out.ReadParams)
		}
		if scale.Live() != 0 {
			t.Fatalf("run %d: %d goroutines left in the census", i, scale.Live())
		}
	}
}

// An environment given a Scale of its own waits in real time: the same
// primitives, over channels and package time.
func TestWallClockEnv(t *testing.T) {
	t.Parallel()
	scale := &simtime.Scale{Tick: time.Millisecond}
	env := NewEnv(emptySchema(), scale, 1)
	stop, firstPass := env.Scale.NewSignal(), env.Scale.NewSignal()
	loops := env.NewGroup()
	loops.Go(func() {
		for !env.Scale.Wait(1, stop) {
			firstPass.Fire()
		}
	})
	env.Defer(func() { stop.Fire(); loops.Wait() })
	start := time.Now()
	env.Scale.Sleep(5)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("Sleep(5) at 1 ms/tick returned after %v", elapsed)
	}
	// Wait for the pass itself: on a loaded machine the loop's goroutine
	// may not get a turn within those 5 ms.
	if !env.Scale.Wait(10_000, firstPass) {
		t.Fatal("the loop never ran")
	}
	env.Close()
}
