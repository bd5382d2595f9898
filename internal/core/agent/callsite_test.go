package agent_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
)

// walkedCallsite is the reference: appCallsite as it was before callsites
// were cached by return address, symbolizing the whole stack on every
// call. It also says whether the frame it settled on was inlined into its
// caller (runtime.Frame.Func is nil for those).
func walkedCallsite() (site string, inlined bool) {
	var pcs [12]uintptr
	// Skip runtime.Callers, walkedCallsite, and InterceptGet itself.
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if f.Function == "" {
			break
		}
		if !strings.Contains(f.Function, "/confkit.") && !strings.Contains(f.Function, "/agent.") {
			file := f.File
			if i := strings.LastIndex(file, "/"); i >= 0 {
				if j := strings.LastIndex(file[:i], "/"); j >= 0 {
					file = file[j+1:]
				}
			}
			return fmt.Sprintf("%s:%d", file, f.Line), f.Func == nil
		}
		if !more {
			break
		}
	}
	return "", false
}

// callsiteChecker is an agent that, on every intercepted read, resolves
// the read's callsite both ways from the depth the agent itself resolves
// it at (directly inside InterceptGet) before handing the read on.
type callsiteChecker struct {
	*agent.Agent

	mu       sync.Mutex
	reads    int
	inlined  int
	sites    map[string]bool
	mismatch []string
}

func newCallsiteChecker(opts agent.Options) *callsiteChecker {
	return &callsiteChecker{Agent: agent.New(opts), sites: make(map[string]bool)}
}

func (c *callsiteChecker) InterceptGet(conf *confkit.Conf, name, stored string, found bool) (string, bool) {
	want, inlined := walkedCallsite()
	// Twice: whatever the first lookup had to resolve, the second finds
	// cached.
	first := agent.AppCallsite()
	second := agent.AppCallsite()
	c.mu.Lock()
	c.reads++
	c.sites[want] = true
	if inlined {
		c.inlined++
	}
	if first != want || second != want {
		c.mismatch = append(c.mismatch, fmt.Sprintf("%s: walked %q, cached %q then %q", name, want, first, second))
	}
	c.mu.Unlock()
	return c.Agent.InterceptGet(conf, name, stored, found)
}

// verify fails t on any disagreement, and on a read that resolved to no
// frame at all, and reports what the run covered.
func (c *callsiteChecker) verify(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.mismatch {
		t.Error(m)
	}
	if c.sites[""] {
		t.Errorf("a read resolved to no application frame (sites %v)", c.sites)
	}
	t.Logf("%d reads, %d distinct callsites, %d resolved to an inlined frame", c.reads, len(c.sites), c.inlined)
}

// TestCachedCallsitesAreTheWalkedCallsites runs every unit test of miniyarn
// and minimr once, as the harness would (a fresh environment on its own
// virtual clock, the body on the clock's first member), with an agent that
// checks on every intercepted read — in test bodies, node constructors and
// node goroutines alike — that the cached lookup returns the string the
// full walk returns.
func TestCachedCallsitesAreTheWalkedCallsites(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"miniyarn", "minimr"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var reads atomic.Int64
		for i := range app.Tests {
			test := &app.Tests[i]
			t.Run(name+"/"+test.Name, func(t *testing.T) {
				env := harness.NewEnv(app.Schema(), nil, 1)
				chk := newCallsiteChecker(agent.Options{Identity: env.Scale.Member})
				env.RT.SetHooks(chk)
				ht := &harness.T{Env: env}
				func() {
					defer env.Close()
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("the body did not return: %v (log %q)", r, ht.Logs())
						}
					}()
					test.Run(ht)
				}()
				if ht.Failed() {
					t.Errorf("the body failed under the default configuration: %q", ht.Logs())
				}
				chk.verify(t)
				reads.Add(int64(chk.reads))
				for site := range chk.sites {
					if !strings.HasPrefix(site, name+"/") && !strings.HasPrefix(site, "common/") {
						t.Errorf("callsite %q is outside the application", site)
					}
				}
			})
		}
		if reads.Load() < 100 {
			t.Errorf("%s: %d reads intercepted over the whole suite; the comparison is vacuous", name, reads.Load())
		}
	}
}

// readInlined is small enough for the compiler to inline into its caller:
// the read's callsite is then a frame with no return address of its own.
func readInlined(c *confkit.Conf) string { return c.Get("p") }

// TestCallsiteOfInlinedAndSpawnedReads covers the two shapes of stack the
// applications do not promise: a getter wrapper the compiler inlined, and a
// read on a goroutine started by simtime.Group.Go, whose stack ends a few
// frames up — each of them from several goroutines at once, so the cache
// is filled and read concurrently (meaningful under -race).
func TestCallsiteOfInlinedAndSpawnedReads(t *testing.T) {
	t.Parallel()
	schema := confkit.NewRegistry().Register(confkit.Param{Name: "p", Kind: confkit.Int, Default: "1"})
	env := harness.NewEnv(schema, nil, 1)
	defer env.Close()
	chk := newCallsiteChecker(agent.Options{Identity: env.Scale.Member})
	env.RT.SetHooks(chk)
	conf := env.RT.NewConf()

	// On the clock: the group's goroutines run one at a time.
	g := env.NewGroup()
	for i := 0; i < 4; i++ {
		g.Go(func() {
			for j := 0; j < 50; j++ {
				readInlined(conf)
				conf.GetInt("p")
			}
		})
	}
	g.Wait()
	// Off the clock: plain goroutines, truly in parallel.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				readInlined(conf)
				conf.GetInt("p")
			}
		}()
	}
	wg.Wait()

	chk.verify(t)
	if want := 2 * (4*50 + 8*200); chk.reads != want {
		t.Errorf("%d reads intercepted, want %d", chk.reads, want)
	}
	if chk.inlined < 4*50+8*200 {
		t.Errorf("%d reads resolved to an inlined frame, want at least the %d through readInlined (was it not inlined?)",
			chk.inlined, 4*50+8*200)
	}
	// The read inside readInlined, and the GetInt line of each closure.
	if len(chk.sites) != 3 {
		t.Errorf("callsites %v, want the three read lines of this test", chk.sites)
	}
	for site := range chk.sites {
		if !strings.HasPrefix(site, "agent/callsite_test.go:") {
			t.Errorf("callsite %q is not in this file", site)
		}
	}
}
