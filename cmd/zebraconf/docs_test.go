package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"zebraconf/internal/core/launch"
)

// definedFlags is every flag the binary defines: main's own and the
// campaign flags launch.Spec binds.
func definedFlags() map[string]bool {
	defined := make(map[string]bool)
	fs := flag.NewFlagSet("zebraconf", flag.ContinueOnError)
	spec := launch.DefaultSpec()
	spec.Bind(fs)
	fs.VisitAll(func(f *flag.Flag) { defined[f.Name] = true })
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the testing package's
			defined[f.Name] = true
		}
	})
	return defined
}

// dispatchModes reads the -mode values dispatch accepts from the case
// clauses of its switch on *mode.
func dispatchModes(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var modes []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "dispatch" {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			star, ok := sw.Tag.(*ast.StarExpr)
			if !ok {
				return true
			}
			if id, ok := star.X.(*ast.Ident); !ok || id.Name != "mode" {
				return true
			}
			for _, stmt := range sw.Body.List {
				for _, e := range stmt.(*ast.CaseClause).List {
					m, err := strconv.Unquote(e.(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					modes = append(modes, m)
				}
			}
			return false
		})
	}
	if len(modes) == 0 {
		t.Fatal("found no switch on *mode in main.go's dispatch")
	}
	sort.Strings(modes)
	return modes
}

// commandLines returns the zebraconf command lines of some text, each as
// its arguments: a line's comment is dropped, a trailing backslash joins
// it to the next, and the command is the first word that is zebraconf or
// a path ending in it.
func commandLines(lines []string) [][]string {
	var cmds [][]string
	joined := ""
	for _, line := range lines {
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if strings.HasSuffix(line, `\`) {
			joined += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		words := strings.Fields(joined + line)
		joined = ""
		for i, w := range words {
			if w == "zebraconf" || strings.HasSuffix(w, "/zebraconf") {
				cmds = append(cmds, words[i+1:])
				break
			}
		}
	}
	return cmds
}

// documentedCommands collects the command lines of main.go's package doc
// and of the Markdown documents' code blocks, keyed by where they are.
func documentedCommands(t *testing.T) map[string][][]string {
	t.Helper()
	out := make(map[string][][]string)
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	out["main.go"] = commandLines(strings.Split(f.Doc.Text(), "\n"))
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		var block []string
		in := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "```") {
				if in {
					out[doc] = append(out[doc], commandLines(block)...)
					block = block[:0]
				}
				in = !in
				continue
			}
			if in {
				block = append(block, line)
			}
		}
	}
	return out
}

// TestDocumentedCommandsParse: every zebraconf command line the docs show
// names only flags the binary defines and only modes dispatch accepts, so
// a deleted flag or mode cannot live on in an example.
func TestDocumentedCommandsParse(t *testing.T) {
	defined := definedFlags()
	modes := make(map[string]bool)
	for _, m := range dispatchModes(t) {
		modes[m] = true
	}
	total := 0
	for doc, cmds := range documentedCommands(t) {
		total += len(cmds)
		for _, args := range cmds {
			for i, a := range args {
				if len(a) < 2 || a[0] != '-' {
					continue
				}
				name, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
				if !defined[name] {
					t.Errorf("%s: zebraconf %s: no flag -%s", doc, strings.Join(args, " "), name)
				}
				if name != "mode" {
					continue
				}
				if !hasValue && i+1 < len(args) {
					value = args[i+1]
				}
				if !modes[value] {
					t.Errorf("%s: zebraconf %s: dispatch has no mode %q", doc, strings.Join(args, " "), value)
				}
			}
		}
	}
	if total < 20 {
		t.Fatalf("found only %d documented command lines: the scan no longer reads the docs", total)
	}
}

// TestModeHelpListsDispatch: -mode's help string lists exactly the modes
// dispatch accepts.
func TestModeHelpListsDispatch(t *testing.T) {
	help := strings.Split(flag.Lookup("mode").Usage, " | ")
	sort.Strings(help)
	if modes := dispatchModes(t); !reflect.DeepEqual(help, modes) {
		t.Errorf("-mode help lists %v, dispatch accepts %v", help, modes)
	}
}
