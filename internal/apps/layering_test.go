package apps

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// jsonOutsideRPC lists the app files that may import encoding/json: each
// serializes something other than an RPC body. Every RPC body is encoded
// by rpcsim, through the method's declaration.
var jsonOutsideRPC = map[string]bool{
	"minihdfs/namenode.go": true, // the namespace image
	"minihbase/nodes.go":   true, // the body inside a thrift frame
}

// wallClock is what the simulator layer may not call: an execution's time
// is its simtime.Scale, and one wall-clock wait makes verdicts depend on
// load.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "After": true, "NewTimer": true, "NewTicker": true,
}

// wallClockSites is how many times each engine file names one of those: a
// file not listed may name none. Most are measurements (Elapsed, phase and
// queue-wait histograms) or supervision of a worker process; a new site is
// an edit to this list, to be argued in review, and a removed one must
// lower its number (ROADMAP 8(f) wants the ones that steer dispatch gone).
var wallClockSites = map[string]int{
	"../core/campaign/campaign.go":   4,
	"../core/campaign/pipeline.go":   2,
	"../core/diskcache/diskcache.go": 3, // one is the age of a temp file Open may sweep
	"../core/dist/coordinator.go":    8,
	"../core/harness/app.go":         3, // the execution watchdog
	"../core/launch/launch.go":       1,
	"../core/runner/runner.go":       2,
	"../core/sched/queue.go":         2,
	"../obs/events.go":               2,
	"../obs/sample.go":               3,
	"../obs/trace.go":                4,
}

// TestSimulatorLayering reads the non-test sources of the mini systems and
// of the rpcsim and netsim packages beneath them, and those of the engine
// (internal/core, internal/obs) for their wall-clock call sites.
func TestSimulatorLayering(t *testing.T) {
	t.Parallel()
	files := 0
	for _, root := range []string{".", "../rpcsim", "../netsim", "../core", "../obs"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			files++
			timeName := ""
			for _, imp := range f.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); {
				case p == "encoding/json" && root == "." && !jsonOutsideRPC[filepath.ToSlash(path)]:
					t.Errorf("%s imports encoding/json: RPC bodies go through an rpcsim.Method declaration", path)
				case p == "time":
					timeName = "time"
					if imp.Name != nil {
						timeName = imp.Name.Name
					}
				}
			}
			sites := 0
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || timeName == "" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timeName && wallClock[sel.Sel.Name] {
					sites++
				}
				return true
			})
			if want := wallClockSites[filepath.ToSlash(path)]; sites != want {
				t.Errorf("%s names the wall clock %d times, wallClockSites says %d: simulators wait on their simtime.Scale, the engine's sites are listed", path, sites, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 80 {
		t.Fatalf("read only %d source files: the walk no longer finds the simulator layer and the engine", files)
	}
}

// sourceBudget is each layer's number of non-test Go lines, by directory
// from the module root; bench/ is outside every layer. A layer that grows
// past its number fails until the number is raised, where review sees the
// trade, and one that shrinks must lower it, so the table only tightens.
var sourceBudget = []struct {
	layer string
	dirs  []string
	lines int
}{
	{"mechanism", []string{"internal/confkit", "internal/core/agent", "internal/core/testgen",
		"internal/core/runner", "internal/core/harness", "internal/core/stats"}, 4215},
	{"simulators", []string{"internal/rpcsim", "internal/simtime", "internal/netsim"}, 1772},
	{"canonjson", []string{"internal/canonjson"}, 1298},
	{"apps", []string{"internal/apps"}, 7566},
	{"machinery", []string{"internal/core/dist", "internal/core/campaign", "internal/core/flight",
		"internal/core/launch", "internal/core/coverage", "internal/core/sched", "internal/core/ledger",
		"internal/core/report", "internal/core/forensics", "internal/core/diskcache", "internal/core/memo"}, 7490},
	{"obs", []string{"internal/obs"}, 1793},
	{"cmd and gid", []string{"cmd", "internal/gid"}, 620},
}

// TestSourceBudget counts the lines of every non-test Go file in the
// module outside bench/ into its layer, and holds each layer to its
// number in sourceBudget. A file in no layer fails too.
func TestSourceBudget(t *testing.T) {
	t.Parallel()
	const root = "../.."
	got := make([]int, len(sourceBudget))
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		for i, b := range sourceBudget {
			for _, dir := range b.dirs {
				if strings.HasPrefix(rel, dir+"/") {
					data, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					got[i] += bytes.Count(data, []byte("\n"))
					return nil
				}
			}
		}
		t.Errorf("%s is in no layer of sourceBudget", rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range sourceBudget {
		switch n := got[i]; {
		case n > b.lines:
			t.Errorf("layer %s has %d non-test lines, over its budget of %d: shrink it, or raise its number in sourceBudget", b.layer, n, b.lines)
		case n < b.lines:
			t.Errorf("layer %s has %d non-test lines, under its budget of %d: lower its number in sourceBudget to %d", b.layer, n, b.lines, n)
		}
	}
}
