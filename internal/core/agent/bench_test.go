package agent

import (
	"strconv"
	"testing"

	"zebraconf/internal/confkit"
)

// agentScenario is one execution's worth of hook calls, played straight
// into an agent so that only the agent's own cost is measured. Each node
// initializes on a goroutine of its own (a scripted identity) and creates
// its objects, the second a clone of the first (Rule 3); the unit test
// holds one object; the reads go round-robin over the objects and the
// parameters, each on the goroutine of its object's owner. The parameters
// are registered, as an app's are; the objects are made once, on a
// runtime with no hooks.
type agentScenario struct {
	cur    uint64
	test   *confkit.Conf
	objs   [][]*confkit.Conf // per node
	params []string
	reads  int
}

func newAgentScenario(nodes, objsPerNode, params, reads int) *agentScenario {
	schema := confkit.NewRegistry()
	for i := range params {
		schema.Register(confkit.Param{Name: "p" + strconv.Itoa(i), Kind: confkit.String})
	}
	rt := confkit.NewRuntime(schema)
	s := &agentScenario{test: rt.NewConf(), objs: make([][]*confkit.Conf, nodes), params: schema.Names(), reads: reads}
	for n := range s.objs {
		for range objsPerNode {
			s.objs[n] = append(s.objs[n], rt.NewConf())
		}
	}
	return s
}

var nodeTypes = [2]string{"N0", "N1"}

// run plays the scenario into a new agent built from opts and returns it,
// its report taken as the harness takes it.
func (s *agentScenario) run(opts Options) (*Agent, Report) {
	s.cur = 1
	opts.Identity = func() uint64 { return s.cur }
	ag := New(opts)
	ag.NewConf(s.test) // Rule 1.2
	for n, objs := range s.objs {
		s.cur = uint64(n + 2)
		ag.StartInit(nodeTypes[n%2])
		for i, c := range objs {
			if i == 1 {
				ag.CloneConf(objs[0], c) // Rule 3
			} else {
				ag.NewConf(c) // Rule 1.1
			}
		}
		ag.StopInit()
	}
	for i := 0; i < s.reads; i++ {
		n := i % (len(s.objs) + 1)
		c := s.test
		s.cur = 1
		if n > 0 {
			objs := s.objs[n-1]
			c, s.cur = objs[i%len(objs)], uint64(n+1)
		}
		ag.InterceptGet(c, s.params[i%len(s.params)], "v", true)
	}
	return ag, ag.Report()
}

// The sizes of a mini system's execution at the top of their range
// (DESIGN.md §2): four nodes, nine objects, two dozen parameters, a few
// hundred reads.
func benchScenario() *agentScenario { return newAgentScenario(4, 2, 24, 400) }

func benchmarkAgent(b *testing.B, opts Options) {
	s := benchScenario()
	opts.Assign = map[Key]string{{NodeType: "N0", Param: "p0"}: "x", {NodeType: UnitTestEntity, Param: "p1"}: "y"}
	b.ReportAllocs()
	for b.Loop() {
		s.run(opts)
	}
}

// BenchmarkAgentTrial prices a phase-2 trial's agent: coverage on, no
// report kept.
func BenchmarkAgentTrial(b *testing.B) { benchmarkAgent(b, Options{Trial: true, Coverage: true}) }

// BenchmarkAgentPreRun prices a pre-run's agent: the full report.
func BenchmarkAgentPreRun(b *testing.B) { benchmarkAgent(b, Options{Coverage: true}) }

// maxTrialAllocs bounds a trial-mode agent's allocations over benchScenario,
// at the count measured when its tables became slices sized for one
// execution (25 before, with maps; 127 before the report's bookkeeping
// left the trial): the agent and its identity closure, the object table
// at its first capacity and grown twice (nine objects), the node table,
// the window table, the coverage bitset, and the coverage names at their
// first capacity and grown once (24 parameters). A read allocates nothing
// once its parameter is in the coverage set.
const maxTrialAllocs = 10

func TestTrialAgentAllocs(t *testing.T) {
	s := benchScenario()
	opts := Options{Trial: true, Coverage: true}
	s.run(opts) // the scenario's closures and first-use costs
	got := testing.AllocsPerRun(50, func() { s.run(opts) })
	if got > maxTrialAllocs {
		t.Fatalf("a trial agent made %.0f allocations over the scenario, want at most %d", got, maxTrialAllocs)
	}
}
