package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"

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

// commandLines returns the command lines of some text, each as its
// arguments: a line's comment is dropped, a trailing backslash joins it to
// the next, and the command is the first word isCommand accepts.
func commandLines(lines []string, isCommand func(word string) bool) [][]string {
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
			if isCommand(w) {
				cmds = append(cmds, words[i+1:])
				break
			}
		}
	}
	return cmds
}

// documentedCommands collects the command lines of main.go's package doc
// and of the Markdown documents' code blocks, keyed by where they are.
func documentedCommands(t *testing.T, isCommand func(word string) bool) map[string][][]string {
	t.Helper()
	out := make(map[string][][]string)
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	out["main.go"] = commandLines(strings.Split(f.Doc.Text(), "\n"), isCommand)
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
					out[doc] = append(out[doc], commandLines(block, isCommand)...)
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
// names only flags the binary defines and only modes dispatch accepts, and
// every go command line only packages and test functions that exist, so a
// deleted flag, mode, program or test cannot live on in an example.
func TestDocumentedCommandsParse(t *testing.T) {
	defined := definedFlags()
	modes := make(map[string]bool)
	for _, m := range dispatchModes(t) {
		modes[m] = true
	}
	total := 0
	isZebraconf := func(w string) bool { return w == "zebraconf" || strings.HasSuffix(w, "/zebraconf") }
	for doc, cmds := range documentedCommands(t, isZebraconf) {
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
	goLines := 0
	for doc, cmds := range documentedCommands(t, func(w string) bool { return w == "go" }) {
		goLines += len(cmds)
		for _, args := range cmds {
			checkGoCommand(t, doc, args)
		}
	}
	if total < 20 || goLines < 10 {
		t.Fatalf("found only %d zebraconf and %d go command lines: the scan no longer reads the docs", total, goLines)
	}
}

// checkGoCommand checks the arguments of a documented go command, run
// from the module root: go run's package must be a main package, and go
// test's -run pattern must match a Test, Example or Benchmark function of
// its package (the root if it names none).
func checkGoCommand(t *testing.T, doc string, args []string) {
	t.Helper()
	line := "go " + strings.Join(args, " ")
	pkg, pattern := "", ""
	for i, a := range args {
		if strings.HasPrefix(a, ".") && pkg == "" {
			pkg = a
		}
		if a == "-run" && i+1 < len(args) {
			pattern = strings.Trim(args[i+1], `'"`)
		}
	}
	if strings.HasSuffix(pkg, "...") {
		return
	}
	funcs, isMain := packageFuncs(t, pkg)
	switch args[0] {
	case "run":
		if !isMain {
			t.Errorf("%s: %s: %s is no main package", doc, line, pkg)
		}
	case "test":
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Errorf("%s: %s: %v", doc, line, err)
		} else if pattern != "" && !re.MatchString("") && !slices.ContainsFunc(funcs, re.MatchString) {
			t.Errorf("%s: %s: -run %q matches no function of %s", doc, line, pattern, pkg)
		}
	}
}

// packageFuncs returns the Test, Example and Benchmark functions of the Go
// files in dir, relative to the module root, and whether its non-test
// files are package main.
func packageFuncs(t *testing.T, dir string) (funcs []string, isMain bool) {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join("../..", dir, "*.go"))
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		isMain = isMain || (f.Name.Name == "main" && !strings.HasSuffix(path, "_test.go"))
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	return funcs, isMain
}

// testFunc matches the names go test runs.
var testFunc = regexp.MustCompile(`^(Test|Example|Benchmark)`)

// TestModeHelpListsDispatch: -mode's help string lists exactly the modes
// dispatch accepts.
func TestModeHelpListsDispatch(t *testing.T) {
	help := strings.Split(flag.Lookup("mode").Usage, " | ")
	sort.Strings(help)
	if modes := dispatchModes(t); !reflect.DeepEqual(help, modes) {
		t.Errorf("-mode help lists %v, dispatch accepts %v", help, modes)
	}
}

// obsConsts reads the string values of the constants internal/obs's
// non-test sources declare under a name of prefix and a capital: "M"
// for the metric families, "Ev" for the events.
func obsConsts(t *testing.T, prefix string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("../../internal/obs/*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					rest, ok := strings.CutPrefix(id.Name, prefix)
					if !ok || rest == "" || !unicode.IsUpper(rune(rest[0])) || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						out[v] = true
					}
				}
			}
		}
	}
	return out
}

// readmeTable reads the names of the table under a README heading: every
// backticked word of each row's first cell.
func readmeTable(t *testing.T, heading string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n"+heading)
	if !ok {
		t.Fatalf("README.md has no heading %q", heading)
	}
	out := make(map[string]bool)
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if rows > 0 {
				break
			}
			continue
		}
		if rows++; rows <= 2 { // the header and the rule under it
			continue
		}
		cell, _, _ := strings.Cut(line[1:], "|")
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			out[m[1]] = true
		}
	}
	return out
}

var backticked = regexp.MustCompile("`([^`]+)`")

// TestCatalogsMatchObs: README's metrics catalog lists exactly the metric
// families internal/obs names, and its event catalog exactly the events,
// so a family or event added or deleted in code cannot linger in, or be
// missing from, the docs.
func TestCatalogsMatchObs(t *testing.T) {
	for _, c := range []struct {
		heading, prefix string
		atLeast         int
	}{
		{"### Metrics catalog", "M", 40},
		{"### Event catalog", "Ev", 16},
	} {
		code, doc := obsConsts(t, c.prefix), readmeTable(t, c.heading)
		if len(code) < c.atLeast {
			t.Fatalf("found only %d %s* constants in internal/obs: the scan no longer reads them", len(code), c.prefix)
		}
		for name := range code {
			if !doc[name] {
				t.Errorf("README %q has no row for %s", c.heading, name)
			}
		}
		for name := range doc {
			if !code[name] {
				t.Errorf("README %q lists %s, which internal/obs does not declare", c.heading, name)
			}
		}
	}
}
