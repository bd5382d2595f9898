package coverage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zebraconf/internal/confkit"
)

func testSchema() *confkit.Registry {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: "codec", Kind: confkit.Enum, Default: "plain",
			Candidates: []string{"plain", "zip"}},
		confkit.Param{Name: "buffer", Kind: confkit.Int, Default: "64"},
		confkit.Param{Name: "dir", Kind: confkit.String, Default: "/tmp"},
	)
	return r
}

func TestCollectorDedupesAndSorts(t *testing.T) {
	t.Parallel()
	c := NewCollector()
	c.Observe("TestA", []string{"dir", "codec", "codec"})
	c.Observe("TestA", []string{"buffer", "dir"})
	c.ObserveTest("TestB")
	got, ok := c.Params("TestA")
	if !ok || !reflect.DeepEqual(got, []string{"buffer", "codec", "dir"}) {
		t.Fatalf("Params(TestA) = %v, %v; want sorted deduped set", got, ok)
	}
	if got, ok := c.Params("TestB"); !ok || len(got) != 0 {
		t.Fatalf("Params(TestB) = %v, %v; want empty entry, true", got, ok)
	}
	if _, ok := c.Params("TestC"); ok {
		t.Fatal("unobserved test reported an entry")
	}
	if tests := c.Tests(); !reflect.DeepEqual(tests, []string{"TestA", "TestB"}) {
		t.Fatalf("Tests() = %v", tests)
	}
	// nil receiver is a no-op everywhere (runner paths with coverage off).
	var nilC *Collector
	nilC.Observe("TestX", []string{"p"})
	nilC.ObserveTest("TestX")
	if _, ok := nilC.Params("TestX"); ok {
		t.Fatal("nil collector claimed an entry")
	}
}

func TestParamDigestSensitivity(t *testing.T) {
	t.Parallel()
	base := confkit.Param{Name: "codec", Kind: confkit.Enum, Default: "plain",
		Candidates: []string{"plain", "zip"}}
	d0 := ParamDigest(&base)

	changedDefault := base
	changedDefault.Default = "zip"
	if ParamDigest(&changedDefault) == d0 {
		t.Fatal("default change did not move the digest")
	}
	changedCand := base
	changedCand.Candidates = []string{"plain", "zip", "lz4"}
	if ParamDigest(&changedCand) == d0 {
		t.Fatal("candidate change did not move the digest")
	}
	changedDep := base
	changedDep.DependsOn = []confkit.DependencyRule{{If: "zip", Then: "buffer", To: "1"}}
	if ParamDigest(&changedDep) == d0 {
		t.Fatal("dependency-rule change did not move the digest")
	}
	// Annotation-only edits must NOT invalidate reruns.
	annotated := base
	annotated.Truth = confkit.SafetyUnsafe
	annotated.Why = "reason"
	annotated.Doc = "docs"
	if ParamDigest(&annotated) != d0 {
		t.Fatal("annotation change moved the digest")
	}
	if ParamDigest(nil) != "absent" {
		t.Fatal("nil param digest not canonical")
	}
}

func TestTestDigestSensitivity(t *testing.T) {
	t.Parallel()
	pd := map[string]string{"a": "d1", "b": "d2"}
	d0 := TestDigest("TestX", 7, "env", []string{"a", "b"}, pd)
	if TestDigest("TestX", 7, "env", []string{"b", "a"}, pd) != d0 {
		t.Fatal("param order changed the digest")
	}
	if TestDigest("TestX", 8, "env", []string{"a", "b"}, pd) == d0 {
		t.Fatal("seed change did not move the digest")
	}
	if TestDigest("TestX", 7, "env2", []string{"a", "b"}, pd) == d0 {
		t.Fatal("env key change did not move the digest")
	}
	pd2 := map[string]string{"a": "d1", "b": "DIFFERENT"}
	if TestDigest("TestX", 7, "env", []string{"a", "b"}, pd2) == d0 {
		t.Fatal("param digest change did not move the digest")
	}
}

// TestIndexCanonicalBytes is the satellite bugfix property: two
// collectors observing the same edges in different orders (as a local
// pool and a sharded worker fleet would) freeze to byte-identical
// index files.
func TestIndexCanonicalBytes(t *testing.T) {
	t.Parallel()
	schema := testSchema()
	c1 := NewCollector()
	c1.Observe("TestA", []string{"codec", "buffer"})
	c1.Observe("TestB", []string{"dir"})
	c2 := NewCollector()
	c2.Observe("TestB", []string{"dir"})
	c2.Observe("TestA", []string{"buffer"})
	c2.Observe("TestA", []string{"codec", "buffer"})

	b1, err := Build("app", 7, "env", c1, schema).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Build("app", 7, "env", c2, schema).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("observation order changed the serialized index:\n%s\nvs\n%s", b1, b2)
	}
}

func TestIndexValidAndChangedParams(t *testing.T) {
	t.Parallel()
	schema := testSchema()
	c := NewCollector()
	c.Observe("TestA", []string{"codec", "buffer"})
	ix := Build("app", 7, "env", c, schema)

	if !ix.Valid("TestA", 7, "env", schema) {
		t.Fatal("fresh entry not valid under its own inputs")
	}
	if ix.Valid("TestA", 8, "env", schema) {
		t.Fatal("entry valid under a different seed")
	}
	if ix.Valid("TestA", 7, "env2", schema) {
		t.Fatal("entry valid under a different env key")
	}
	if ix.Valid("TestMissing", 7, "env", schema) {
		t.Fatal("absent test valid")
	}

	// Flip one read parameter's default: only it should be named.
	drifted := testSchema()
	drifted.Lookup("codec").Default = "zip"
	if ix.Valid("TestA", 7, "env", drifted) {
		t.Fatal("entry still valid after a read param's default changed")
	}
	if got := ix.ChangedParams("TestA", drifted); !reflect.DeepEqual(got, []string{"codec"}) {
		t.Fatalf("ChangedParams = %v, want [codec]", got)
	}
	// A drift in an UNread parameter must not invalidate the test.
	unread := testSchema()
	unread.Lookup("dir").Default = "/var"
	if !ix.Valid("TestA", 7, "env", unread) {
		t.Fatal("unread param drift invalidated the entry")
	}
}

func TestIndexAdoptAndTestsReading(t *testing.T) {
	t.Parallel()
	schema := testSchema()
	prev := NewCollector()
	prev.Observe("TestA", []string{"codec"})
	prev.Observe("TestB", []string{"buffer"})
	prevIx := Build("app", 7, "env", prev, schema)

	cur := NewCollector()
	cur.Observe("TestB", []string{"buffer", "dir"})
	ix := Build("app", 7, "env", cur, schema)
	ix.Adopt(prevIx, []string{"TestA", "TestB", "TestGone"})

	if e := ix.Tests["TestA"]; e == nil || !reflect.DeepEqual(e.Params, []string{"codec"}) {
		t.Fatalf("adopted entry wrong: %+v", e)
	}
	// A fresh entry wins over the adopted one.
	if e := ix.Tests["TestB"]; !reflect.DeepEqual(e.Params, []string{"buffer", "dir"}) {
		t.Fatalf("Adopt overwrote a fresh entry: %+v", e)
	}
	if got := ix.TestsReading("buffer"); !reflect.DeepEqual(got, []string{"TestB"}) {
		t.Fatalf("TestsReading(buffer) = %v", got)
	}
	if got := ix.TestsReading("codec"); !reflect.DeepEqual(got, []string{"TestA"}) {
		t.Fatalf("TestsReading(codec) = %v", got)
	}
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if ix, err := Load(dir, "app"); err != nil || ix != nil {
		t.Fatalf("cold load = %v, %v; want nil, nil", ix, err)
	}
	schema := testSchema()
	c := NewCollector()
	c.Observe("TestA", []string{"codec"})
	ix := Build("app", 7, "env", c, schema)
	ix.Tests["TestA"].Callsites = map[string][]string{"codec": {"a<b>&c.go:1", "d.go:2"}, "dir": {}}
	if err := Save(dir, ix); err != nil {
		t.Fatal(err)
	}
	// The file is json.MarshalIndent's bytes and a newline.
	want, err := json.MarshalIndent(ix, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if file, err := os.ReadFile(PathFor(dir, "app")); err != nil || !bytes.Equal(file, append(want, '\n')) {
		t.Fatalf("saved index (%v):\n%s\nwant\n%s", err, file, want)
	}
	got, err := Load(dir, "app")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := ix.Bytes()
	b2, _ := got.Bytes()
	if !bytes.Equal(b1, b2) {
		t.Fatal("save/load round trip not byte-identical")
	}
	// Save into a nested directory that does not exist yet.
	if err := Save(filepath.Join(dir, "a", "b"), ix); err != nil {
		t.Fatalf("Save into missing dir: %v", err)
	}
}

func TestItemStoreRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if st, err := LoadItems(dir, "app"); err != nil || st != nil {
		t.Fatalf("cold item load = %v, %v; want nil, nil", st, err)
	}
	st := &ItemStore{App: "app<1>", Items: make(map[string]json.RawMessage)}
	for i, test := range []string{"TestZ", "TestA", "Test<&>", "TestM"} {
		b, err := json.Marshal(map[string]any{"id": i, "test": test, "error": "a < b && c"})
		if err != nil {
			t.Fatal(err)
		}
		st.Items[test] = b
	}
	if err := SaveItems(dir, st); err != nil {
		t.Fatal(err)
	}
	// Records json.Marshal produced are stored as given, so the file is
	// exactly what marshalling the whole store would write.
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(ItemsPathFor(dir, st.App))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, append(want, '\n')) {
		t.Fatalf("item store file:\n got %s\nwant %s", file, want)
	}
	got, err := LoadItems(dir, st.App)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, st)
	}
}

// TestItemStoreLoadsIndentedStore: a store written the older way, the whole
// map indented, loads to the same records, and saving it again keeps it
// loadable.
func TestItemStoreLoadsIndentedStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st := &ItemStore{App: "app", Items: map[string]json.RawMessage{
		"TestA": json.RawMessage(`{"id":0,"verdicts":[{"param":"p","unsafe":true}]}`),
		"TestB": json.RawMessage(`{"id":1,"test":"TestB"}`),
	}}
	indented, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ItemsPathFor(dir, st.App), append(indented, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	decoded := func(s *ItemStore) map[string]any {
		t.Helper()
		out := make(map[string]any, len(s.Items))
		for name, raw := range s.Items {
			var v any
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = v
		}
		return out
	}
	for pass := 0; pass < 2; pass++ {
		got, err := LoadItems(dir, st.App)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if got.App != st.App || !reflect.DeepEqual(decoded(got), decoded(st)) {
			t.Fatalf("pass %d: loaded %+v, want the records of %+v", pass, got, st)
		}
		if err := SaveItems(dir, got); err != nil {
			t.Fatalf("pass %d: resave: %v", pass, err)
		}
	}
}

// TestItemStoreRefusesInvalidRecord: a record that is not JSON fails the
// save, which leaves the previous store byte for byte and no temporary file.
func TestItemStoreRefusesInvalidRecord(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	good := &ItemStore{App: "app", Items: map[string]json.RawMessage{"TestA": json.RawMessage(`{"id":0}`)}}
	if err := SaveItems(dir, good); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(ItemsPathFor(dir, "app"))
	if err != nil {
		t.Fatal(err)
	}
	bad := &ItemStore{App: "app", Items: map[string]json.RawMessage{
		"TestA": json.RawMessage(`{"id":0}`),
		"TestB": json.RawMessage(`{"id":`),
	}}
	if err := SaveItems(dir, bad); err == nil {
		t.Fatal("a store with a torn record was saved")
	}
	after, err := os.ReadFile(ItemsPathFor(dir, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("the failed save changed the store:\n before %s\n after  %s", before, after)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Fatalf("the failed save left %v behind", tmp)
	}
}
