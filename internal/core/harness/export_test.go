package harness

import (
	"zebraconf/internal/core/agent"
	"zebraconf/internal/obs"
)

// RunFresh is RunOnceCaptured on scaffolding built new, by NewEnv and
// agent.New, and never pooled: the reference a recycled frame is held to.
func RunFresh(app *App, test *UnitTest, opts agent.Options, seed int64, o *obs.Observer, spec CaptureSpec) Outcome {
	env := NewEnv(app.Schema(), nil, seed)
	if spec.ReadEvents > 0 {
		opts.TraceReads = spec.ReadEvents
	}
	opts.Identity = env.Scale.Member
	ag := agent.New(opts)
	env.RT.SetHooks(ag)
	out, _ := newFrame(env, ag).run(app, test, o, spec)
	return out
}
