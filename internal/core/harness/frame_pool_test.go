package harness

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/core/agent"
)

// trivialTest creates one configuration object and reads a parameter: an
// execution that is all scaffolding.
var trivialTest = &UnitTest{Name: "TestTrivial", Run: func(t *T) { t.Env.RT.NewConf().Get("x") }}

var sinkOutcome Outcome

// TestRunOnceAllocs holds a trivial trial's RunOnce, run as the runner
// runs one, to what the recycled frame leaves: the channels closed once
// per execution (the body's, and the clock's dead, halted and drained),
// the body's goroutine, the runtime's spawner and agent box, the object
// and its properties, and the coverage list.
func TestRunOnceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the frame pool drops what it is handed under -race")
	}
	app := &App{Name: "frames", Schema: emptySchema}
	opts := agent.Options{Trial: true, Coverage: true}
	if allocs := testing.AllocsPerRun(100, func() { sinkOutcome = RunOnce(app, trivialTest, opts, 1) }); allocs > 12 {
		t.Fatalf("a trivial trial made %.0f allocations, want at most 12", allocs)
	}
}

// BenchmarkRunOnce prices the scaffolding of one execution: a trivial
// trial.
func BenchmarkRunOnce(b *testing.B) {
	app := &App{Name: "frames", Schema: emptySchema}
	opts := agent.Options{Trial: true, Coverage: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkOutcome = RunOnce(app, trivialTest, opts, int64(i))
	}
}

// An execution whose body ignores the clock past the watchdog is
// abandoned, and its frame never goes back to the pool: not when RunOnce
// returns, nor once the body finally does. A reaped execution's frame
// does.
func TestAbandonedFrameNeverReturns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one pool list, which pooled drains whole
	pooled := func(env *Env) bool {
		var held []*frame
		defer func() {
			for _, f := range held {
				frames.Put(f)
			}
		}()
		for {
			f, _ := frames.Get().(*frame)
			if f == nil {
				return false
			}
			held = append(held, f)
			if f.env == env {
				return true
			}
		}
	}
	app := &App{Name: "frames", Schema: emptySchema}
	var abandoned, reaped atomic.Pointer[Env]
	release := make(chan struct{})
	leaked := LeakedGoroutines()
	out := RunOnce(app, &UnitTest{Name: "TestIgnoresTheClock", Timeout: 20 * time.Millisecond, Run: func(t *T) {
		abandoned.Store(t.Env)
		<-release // a bare channel: the clock cannot end this wait
	}}, agent.Options{}, 1)
	if !out.Abandoned || abandoned.Load() == nil {
		t.Fatalf("the body was not abandoned: %+v", out)
	}
	if pooled(abandoned.Load()) {
		t.Fatal("an abandoned execution's frame is in the pool while its body runs")
	}
	close(release)
	for deadline := time.Now().Add(10 * time.Second); LeakedGoroutines() > leaked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned body never returned")
		}
	}
	if pooled(abandoned.Load()) {
		t.Fatal("an abandoned execution's frame went back to the pool once its body returned")
	}
	RunOnce(app, &UnitTest{Name: "TestReturns", Run: func(t *T) { reaped.Store(t.Env) }}, agent.Options{}, 1)
	if !raceEnabled && !pooled(reaped.Load()) {
		t.Fatal("a reaped execution's frame is not in the pool")
	}
}
