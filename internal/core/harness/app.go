package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/obs"
	"zebraconf/internal/simtime"
)

// Abandoned-goroutine accounting: ending an execution shuts its clock
// down, which ends every goroutine parked on it (or parking on it later).
// A goroutine that never touches the clock again — a body spinning, or
// blocked on something that is not a clock primitive — cannot be ended: Go
// offers no preemptive kill, so it keeps running against a closed Env until
// it returns on its own. Each such execution says so (Outcome.Abandoned);
// the live count is process-global because the hazard is process-global: an
// abandoned goroutine competes for the scheduler and can keep mutating
// shared state. The distributed worker mode exists to turn this leak into a
// killable subprocess.
var leakedNow atomic.Int64 // abandoned bodies still running

// LeakedGoroutines reports how many executions that left a goroutine
// behind still have it running right now.
func LeakedGoroutines() int64 { return leakedNow.Load() }

// DefaultTestTimeout bounds one unit-test execution: as
// DefaultTestTimeout/simtime.DefaultTick ticks of the execution's virtual
// clock, and in real time for a body that never waits on it. Tests that
// hang — e.g. a balancer that never finishes because the NameNode keeps
// declining its moves — fail with a timeout, exactly like a JUnit test with
// a @Timeout rule.
const DefaultTestTimeout = 15 * time.Second

// UnitTest is one registered whole-system (or function-level) unit test.
type UnitTest struct {
	// Name identifies the test within its application.
	Name string
	// Run is the test body.
	Run func(t *T)
	// Timeout overrides DefaultTestTimeout when positive.
	Timeout time.Duration
}

// AnnotationStats is the application's Table 4 analog: how many lines were
// added or changed to support ZebraConf.
type AnnotationStats struct {
	// NodeLines counts annotations in node classes (StartInit/StopInit,
	// RefToClone call sites).
	NodeLines int
	// ConfLines counts annotations in the configuration class.
	ConfLines int
}

// App is one target application: its schema, node types, and unit tests.
type App struct {
	// Name is the application name used in reports ("minihdfs", ...).
	Name string
	// Schema returns the application's parameter registry, including
	// parameters inherited from shared libraries: the same registry on
	// every call; callers must not mutate it.
	Schema func() *confkit.Registry
	// NodeTypes lists the node types the application can start (Table 2).
	NodeTypes []string
	// Tests is the unit-test suite ZebraConf reuses.
	Tests []UnitTest
	// Annotations reports the instrumentation effort (Table 4).
	Annotations AnnotationStats
}

// Test returns the named test, or an error.
func (a *App) Test(name string) (*UnitTest, error) {
	for i := range a.Tests {
		if a.Tests[i].Name == name {
			return &a.Tests[i], nil
		}
	}
	return nil, fmt.Errorf("harness: app %s has no test %q", a.Name, name)
}

// TestNames returns the suite's test names in registration order.
func (a *App) TestNames() []string {
	out := make([]string, len(a.Tests))
	for i := range a.Tests {
		out[i] = a.Tests[i].Name
	}
	return out
}

// Outcome is the result of one unit-test execution.
type Outcome struct {
	// Failed reports whether the test failed (assertion, fatal, panic, or
	// timeout).
	Failed bool
	// TimedOut reports whether the failure was an execution timeout.
	TimedOut bool
	// Msg carries the first failure message, for diagnosis.
	Msg string
	// Report is the agent's pre-run bookkeeping for this execution; the
	// zero value for a trial (agent.Options.Trial), which keeps none.
	Report agent.Report
	// Elapsed is the real execution time of the body: processor time,
	// near enough, since waiting on the virtual clock costs none.
	Elapsed time.Duration
	// ElapsedTicks is the body's execution time on the virtual clock.
	ElapsedTicks int64
	// Abandoned reports that this execution left a goroutine running that
	// the clock's shutdown could not end (see leakedNow). Serialized
	// nowhere.
	Abandoned bool `json:"-"`

	// Forensics capture, populated only by RunOnceCaptured with a
	// non-zero CaptureSpec. Logs is the (ring-capped) harness log;
	// LogDroppedBytes/LogDroppedMsgs account ring evictions between
	// Logs[0] and Logs[1]. Reads is the agent's ordered read trace;
	// ReadsDropped counts reads beyond its cap.
	Logs            []string          `json:"logs,omitempty"`
	LogDroppedBytes int               `json:"log_dropped_bytes,omitempty"`
	LogDroppedMsgs  int               `json:"log_dropped_msgs,omitempty"`
	Reads           []agent.ReadEvent `json:"reads,omitempty"`
	ReadsDropped    int               `json:"reads_dropped,omitempty"`

	// Coverage sink, populated only when opts.Coverage (or
	// opts.CoverageSites) was set — independent of CaptureSpec, because
	// the forensic trace above is capped and coverage must not be:
	// ReadParams is the full deduplicated sorted set of parameters the
	// execution read, regardless of how many reads the trace dropped.
	ReadParams []string `json:"read_params,omitempty"`
	// ReadSites maps a read parameter to its sorted app-frame callsites
	// (only with opts.CoverageSites — pre-runs).
	ReadSites map[string][]string `json:"read_sites,omitempty"`
}

// CaptureSpec bounds what RunOnceCaptured records per execution. The
// zero value disables capture entirely.
type CaptureSpec struct {
	// LogBytes caps retained harness log bytes (the ring buffer).
	LogBytes int
	// ReadEvents caps recorded configuration-read events.
	ReadEvents int
}

// enabled reports whether the spec asks for any capture at all.
func (s CaptureSpec) enabled() bool { return s.LogBytes > 0 || s.ReadEvents > 0 }

// RunOnce executes one unit test in an environment and an agent as new,
// the agent configured by opts (see frame). seed differentiates trials of nondeterministic tests.
func RunOnce(app *App, test *UnitTest, opts agent.Options, seed int64) Outcome {
	return RunOnceCaptured(app, test, opts, seed, nil, CaptureSpec{})
}

// RunOnceCaptured is RunOnce with an observability hook — the per-test
// duration histogram and timeout counter are recorded on o (nil disables
// instrumentation) — plus bounded evidence capture: with a non-zero spec
// the outcome carries the harness log (ring-capped at spec.LogBytes) and
// the agent's ordered read trace (capped at spec.ReadEvents). Capture
// changes nothing about the execution itself — same seed, same
// assignment, same verdict.
//
// The execution runs on its own virtual clock. The body runs on a goroutine
// of that clock and tears the environment down itself on the tick it
// returns, so no node loop gets to run (and read configuration) in between;
// the calling goroutine only watches. The test's timeout is a limit on the
// clock: a body still unfinished when every goroutine is parked and the
// next deadline lies past the limit — or there is none, a deadlock — has
// timed out, at no cost in wall time. The same timeout on the wall clock
// remains as a watchdog for a body that never parks.
func RunOnceCaptured(app *App, test *UnitTest, opts agent.Options, seed int64, o *obs.Observer, spec CaptureSpec) Outcome {
	f := takeFrame(app.Schema(), seed)
	if spec.ReadEvents > 0 {
		opts.TraceReads = spec.ReadEvents
	}
	// The clock runs one goroutine of the execution at a time and knows
	// which: the agent's threadContext is keyed by that.
	opts.Identity = f.member
	agent.Reuse(f.ag, opts)
	out, reaped := f.run(app, test, o, spec)
	if reaped {
		frames.Put(f)
	}
	return out
}

// frame is the scaffolding of one execution: the execution, the Env with
// its runtime, fabric and clock, the agent, and the watcher's timer. It
// goes back to frames only once its execution was reaped — every clock
// member returned, the cleanups done — so nothing of one execution runs
// into the next; an abandoned execution's frame is dropped. Each layer
// resets by the code its constructor runs (simtime.Scale.Recycle,
// Env.reset, agent.Reuse).
type frame struct {
	x      execution
	env    *Env
	ag     *agent.Agent
	member func() uint64 // env.Scale.Member, bound once
	timer  *time.Timer   // stopped and drained between uses
}

// frames holds the frames of reaped executions.
var frames sync.Pool

// takeFrame returns a frame whose environment is ready for an execution
// over schema with seed, its clock's first member the caller.
func takeFrame(schema *confkit.Registry, seed int64) *frame {
	if f, ok := frames.Get().(*frame); ok && f.env.Scale.Recycle() {
		f.env.reset(schema, seed)
		return f
	}
	env := NewEnv(schema, nil, seed)
	f := &frame{env: env, ag: new(agent.Agent), member: env.Scale.Member}
	env.RT.SetHooks(f.ag) // reset per execution by agent.Reuse
	return f
}

// run executes test in f, whose environment has f.ag installed, and
// reports whether the execution was reaped.
func (f *frame) run(app *App, test *UnitTest, o *obs.Observer, spec CaptureSpec) (Outcome, bool) {
	env, ag, x := f.env, f.ag, &f.x
	*x = execution{
		t:        T{Env: env, logCap: spec.LogBytes},
		ag:       ag,
		spec:     spec,
		finished: make(chan struct{}),
	}
	timeout := test.Timeout
	if timeout <= 0 {
		timeout = DefaultTestTimeout
	}

	x.start = time.Now()
	halted := env.Scale.Limit(int64(timeout / simtime.DefaultTick))
	// takeFrame made this goroutine the clock's first member. It hands that
	// membership, identity included, to the body's goroutine and only
	// watches from here on. That goroutine keeps the baton through its own
	// teardown and gives the membership up last (the first defer of
	// execution.body), so the environment is closed on the tick the body
	// returns, before any node loop gets another turn.
	go x.body(test)

	// One timer is the watchdog here and the grace wait below.
	if f.timer == nil {
		f.timer = time.NewTimer(timeout)
	} else {
		f.timer.Reset(timeout)
	}
	grace := reapGrace
	select {
	case <-x.finished:
	case <-halted:
	case <-f.timer.C:
		grace = 0 // whatever ignored the clock for this long will not exit now
	}
	stop(f.timer)

	x.mu.Lock()
	out, returned := x.out, x.returned
	x.abandoned = !returned
	x.mu.Unlock()
	if !returned {
		x.t.Errorf("test timed out after %v", timeout)
		out = x.collect()
		out.TimedOut = true
	}
	// Stop nodes before reading the report so no new confs appear
	// mid-read: shutting the clock down ends every goroutine parked on it.
	drained := env.Scale.Shutdown()
	reaped := true
	if out.TimedOut {
		// The body never reached its teardown. The cleanups still run, on
		// a goroutine of their own: one that waits on the dead clock ends
		// the goroutine it runs on.
		cleaned := make(chan struct{})
		go func() {
			defer close(cleaned)
			env.runCleanups()
		}()
		reaped = within(cleaned, grace, f.timer)
	}
	reaped = reaped && within(drained, grace, f.timer)
	if !reaped {
		out.Abandoned = true
		leakedNow.Add(1)
		o.GaugeAdd(obs.MLeakedGoroutines, 1, "app", app.Name)
		// Watch for the abandoned goroutines to finally return, so the
		// leaked gauge reflects goroutines still running, not ever
		// abandoned (Outcome.Abandoned, counted with the item).
		go func() {
			<-drained
			leakedNow.Add(-1)
			o.GaugeAdd(obs.MLeakedGoroutines, -1, "app", app.Name)
		}()
	}
	out.Report = ag.Report()
	o.RecordTestRun(app.Name, test.Name, out.TimedOut, out.Elapsed)
	return out, reaped
}

// execution is one RunOnceCaptured in flight: the test handle, what the
// outcome is read from, and the outcome slot the body's goroutine fills
// when it returns — unless the watching goroutine has given up on it by
// then and collected the outcome itself.
type execution struct {
	t        T
	ag       *agent.Agent
	spec     CaptureSpec
	start    time.Time
	finished chan struct{} // the body returned and tore the environment down

	mu        sync.Mutex
	out       Outcome
	returned  bool // the body filled out
	abandoned bool // the watcher gave up on the body
}

// body runs the test on a goroutine of the execution's clock, then — on
// the tick it returns — fills the outcome slot and tears the environment
// down.
func (x *execution) body(test *UnitTest) {
	env := x.t.Env
	defer env.Scale.Leave()
	exited := true // by runtime.Goexit, until the body says otherwise
	defer func() {
		rec := recover()
		if exited && rec == nil {
			return // the clock's shutdown ended a body that had timed out
		}
		if _, isFailNow := rec.(failNow); rec != nil && !isFailNow {
			x.t.Errorf("panic: %v", rec)
		}
		x.mu.Lock()
		if !x.abandoned {
			x.out, x.returned = x.collect(), true
		}
		x.mu.Unlock()
		env.Close()
		close(x.finished)
	}()
	test.Run(&x.t)
	exited = false
}

// collect reads the outcome off the test handle and the agent as they
// stand: when the body returns, before teardown adds reads of its own, or
// when the watcher gives up on it.
func (x *execution) collect() Outcome {
	t := &x.t
	out := Outcome{Failed: t.Failed(), Elapsed: time.Since(x.start), ElapsedTicks: t.Env.Scale.Now()}
	logs := t.Logs()
	if out.Failed && len(logs) > 0 {
		// The ring never evicts its head entry, so Msg is stable under
		// capping: the same first message capture on or off.
		out.Msg = logs[0]
	}
	if x.spec.enabled() {
		out.Logs = logs
		out.LogDroppedBytes, out.LogDroppedMsgs = t.LogDropped()
		out.Reads, out.ReadsDropped = x.ag.ReadTrace()
	}
	// Both nil unless the agent keeps them (Options.Coverage,
	// CoverageSites).
	out.ReadParams = x.ag.CoverageParams()
	out.ReadSites = x.ag.CoverageSites()
	return out
}

// reapGrace is how long RunOnce waits, in real time, for the goroutines of
// a finished execution to unwind after the clock's shutdown. They have
// nothing left to wait for, so only a goroutine that blocks without the
// clock gets anywhere near it.
const reapGrace = 2 * time.Second

// within reports whether ch is closed within d, waiting on timer, which
// is stopped and drained, and left so.
func within(ch <-chan struct{}, d time.Duration, timer *time.Timer) bool {
	select {
	case <-ch:
		return true
	default:
	}
	if d <= 0 {
		return false
	}
	timer.Reset(d)
	defer stop(timer)
	select {
	case <-ch:
		return true
	case <-timer.C:
		return false
	}
}

// stop stops timer and drains its channel for the next Reset, as timers
// before Go 1.23's semantics (go.mod's go line picks them) need.
func stop(timer *time.Timer) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
}
