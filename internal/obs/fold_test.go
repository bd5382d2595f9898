package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// catalog lists the value of every Ev* constant declared in events.go,
// read from the source so a constant added there cannot be missed here.
func catalog(t testing.TB) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "events.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Ev") {
					continue
				}
				name, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, name)
			}
		}
	}
	if len(names) < 18 {
		t.Fatalf("found only %d Ev* constants in events.go: %v", len(names), names)
	}
	return names
}

// TestCatalogClosure: the catalog is closed in both directions — every
// Ev* constant has a row in fold (even one that implies nothing), and
// fold knows no name outside the constants.
func TestCatalogClosure(t *testing.T) {
	o := New()
	o.Status = NewStatus()
	for _, ev := range catalog(t) {
		if !o.fold(ev, attrs{String("app", "x")}) {
			t.Errorf("event %q has no row in fold", ev)
		}
	}
	if o.fold("no_such_event", nil) {
		t.Error("fold accepted a name outside the catalog")
	}
}

// TestFoldTakesReplayedNumbers: a JSONL log hands every number back as
// a float64; the fold must read those exactly like the int64s the
// engine emits.
func TestFoldTakesReplayedNumbers(t *testing.T) {
	live, replayed := statusObserver("x", 1), statusObserver("x", 1)
	live.Event(EvWorkerSpawn, String("app", "x"), Int("worker", 3), Int("pid", 77))
	live.Event(EvItemComplete, String("app", "x"), Int("item", 5), Int("worker", 3), Float("elapsed_s", 2))
	replayed.Event(EvWorkerSpawn, String("app", "x"), Attr{"worker", float64(3)}, Attr{"pid", float64(77)})
	replayed.Event(EvItemComplete, String("app", "x"), Attr{"item", float64(5)}, Attr{"worker", float64(3)}, Float("elapsed_s", 2))
	for _, o := range []*Observer{live, replayed} {
		ws := o.Workers()
		if len(ws) != 1 || ws[0].Slot != 3 || ws[0].PID != 77 || ws[0].ItemsDone != 1 {
			t.Fatalf("workers: %+v", ws)
		}
		if n := o.Metrics.CounterValue(MWorkerItems, "app", "x", "worker", "3"); n != 1 {
			t.Fatalf("MWorkerItems{worker=3} = %d, want 1", n)
		}
		if cs := o.Campaign(); cs.ItemsDone != 1 {
			t.Fatalf("items done %d, want 1", cs.ItemsDone)
		}
	}
}
