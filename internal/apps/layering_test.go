package apps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// TestSimulatorLayering reads the non-test sources of the mini systems and
// of the rpcsim and netsim packages beneath them.
func TestSimulatorLayering(t *testing.T) {
	t.Parallel()
	files := 0
	for _, root := range []string{".", "../rpcsim", "../netsim"} {
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
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || timeName == "" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timeName && wallClock[sel.Sel.Name] {
					t.Errorf("%s calls time.%s: simulators wait on their simtime.Scale", path, sel.Sel.Name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 30 {
		t.Fatalf("read only %d source files: the walk no longer finds the simulator layer", files)
	}
}
