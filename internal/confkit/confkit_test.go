package confkit

import (
	"strconv"
	"testing"
	"testing/quick"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Register(
		Param{Name: "num", Kind: Int, Default: "42"},
		Param{Name: "flag", Kind: Bool, Default: "true"},
		Param{Name: "mode", Kind: Enum, Default: "a", Candidates: []string{"a", "b", "c"}},
		Param{Name: "name", Kind: String, Default: "hello"},
		Param{Name: "delay", Kind: Ticks, Default: "30"},
	)
	return r
}

func TestDefaultsAndTypedAccessors(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	c := rt.NewConf()
	if c.Get("num") != "42" || c.GetInt("num") != 42 {
		t.Fatal("int default not served")
	}
	if !c.GetBool("flag") {
		t.Fatal("bool default not served")
	}
	if c.GetTicks("delay") != 30 {
		t.Fatal("ticks default not served")
	}
	if c.Get("missing") != "" {
		t.Fatal("missing parameter returned a value")
	}
	if _, ok := c.GetOK("missing"); ok {
		t.Fatal("missing parameter reported found")
	}
}

func TestSetOverridesDefaultAndUnsetRestores(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	c := rt.NewConf()
	c.SetInt("num", 7)
	if c.GetInt("num") != 7 || !c.Has("num") {
		t.Fatal("SetInt not visible")
	}
	c.Unset("num")
	if c.GetInt("num") != 42 || c.Has("num") {
		t.Fatal("Unset did not restore the default")
	}
}

func TestUnparseableValueFallsBack(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	c := rt.NewConf()
	c.Set("num", "not-a-number")
	if c.GetInt("num") != 42 {
		t.Fatalf("GetInt on garbage = %d, want the default 42", c.GetInt("num"))
	}
	c.Set("flag", "maybe")
	if !c.GetBool("flag") {
		t.Fatal("GetBool on garbage should fall back to the default true")
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	a := rt.NewConf()
	a.Set("name", "original")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal to original")
	}
	b.Set("name", "changed")
	if a.Get("name") != "original" {
		t.Fatal("mutating the clone leaked into the original")
	}
	if a.ID() == b.ID() {
		t.Fatal("clone shares the original's identity")
	}
}

func TestRefToCloneWithoutHooksIsIdentity(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	c := rt.NewConf()
	if c.RefToClone() != c {
		t.Fatal("RefToClone cloned without an agent attached")
	}
}

func TestDiffAndKeys(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	a, b := rt.NewConf(), rt.NewConf()
	a.Set("x", "1")
	a.Set("y", "2")
	b.Set("y", "3")
	b.Set("z", "4")
	want := []string{"x", "y", "z"}
	got := a.Diff(b)
	if len(got) != len(want) {
		t.Fatalf("Diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Diff = %v, want %v", got, want)
		}
	}
	if keys := a.Keys(); len(keys) != 2 || keys[0] != "x" {
		t.Fatalf("Keys = %v", keys)
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestRegistryPanics(t *testing.T) {
	t.Parallel()
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty name", func() { NewRegistry().Register(Param{}) })
	expectPanic("duplicate", func() {
		NewRegistry().Register(Param{Name: "p", Kind: String}, Param{Name: "p", Kind: String})
	})
	expectPanic("bad bool default", func() {
		NewRegistry().Register(Param{Name: "b", Kind: Bool, Default: "yesplease"})
	})
	expectPanic("bad int default", func() {
		NewRegistry().Register(Param{Name: "i", Kind: Int, Default: "one"})
	})
	expectPanic("enum without candidates", func() {
		NewRegistry().Register(Param{Name: "e", Kind: Enum, Default: "a"})
	})
	expectPanic("enum default not candidate", func() {
		NewRegistry().Register(Param{Name: "e", Kind: Enum, Default: "x", Candidates: []string{"a"}})
	})
}

func TestRegistryIncludeSkipsDuplicates(t *testing.T) {
	t.Parallel()
	base := NewRegistry()
	base.Register(Param{Name: "shared", Kind: Int, Default: "1"})
	top := NewRegistry()
	top.Register(Param{Name: "shared", Kind: Int, Default: "99"}, Param{Name: "own", Kind: String})
	top.Include(base)
	if d, _ := top.Default("shared"); d != "99" {
		t.Fatalf("Include overwrote an existing parameter: default %q", d)
	}
	if top.Len() != 2 {
		t.Fatalf("Len = %d", top.Len())
	}
}

// Index numbers a registry's parameters by their place in Names, through
// Include (which numbers the included parameters after the registry's own)
// and WithDefaults (which keeps the numbering).
func TestRegistryIndexIsNamesOrder(t *testing.T) {
	t.Parallel()
	base := NewRegistry()
	base.Register(Param{Name: "shared", Kind: Int, Default: "1"}, Param{Name: "base.only", Kind: Int, Default: "2"})
	top := NewRegistry()
	top.Register(Param{Name: "own", Kind: String}, Param{Name: "shared", Kind: Int, Default: "99"})
	top.Include(base)
	for _, r := range []*Registry{base, top, top.WithDefaults(map[string]string{"shared": "5"})} {
		for want, name := range r.Names() {
			if got, ok := r.Index(name); !ok || got != want {
				t.Errorf("Index(%q) = %d, %v; want %d, true (Names %v)", name, got, ok, want, r.Names())
			}
		}
		if _, ok := r.Index("unregistered"); ok {
			t.Errorf("Index of an unregistered name reports it registered")
		}
	}
}

func TestAutoValuesPolicy(t *testing.T) {
	t.Parallel()
	boolP := Param{Name: "b", Kind: Bool, Default: "false"}
	if vs := boolP.AutoValues(); len(vs) != 2 {
		t.Fatalf("bool AutoValues = %v", vs)
	}
	intP := Param{Name: "i", Kind: Int, Default: "100"}
	vs := intP.AutoValues()
	if len(vs) != 3 || vs[0] != "100" || vs[1] != "1000" || vs[2] != "10" {
		t.Fatalf("int AutoValues = %v, want default, 10x, /10", vs)
	}
	explicit := Param{Name: "e", Kind: Int, Default: "5", Candidates: []string{"5", "0", "-1", "5"}}
	if vs := explicit.AutoValues(); len(vs) != 3 {
		t.Fatalf("explicit candidates not deduplicated: %v", vs)
	}
}

func TestSortedNamesAndPrefix(t *testing.T) {
	t.Parallel()
	r := testRegistry()
	names := r.SortedNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("SortedNames not sorted: %v", names)
		}
	}
	if got := r.WithPrefix("n"); len(got) != 2 { // name, num
		t.Fatalf("WithPrefix(n) = %v", got)
	}
}

func TestKindAndSafetyStrings(t *testing.T) {
	t.Parallel()
	if Bool.String() != "bool" || Ticks.String() != "ticks" || Kind(99).String() == "" {
		t.Fatal("Kind.String broken")
	}
	if SafetyUnsafe.String() != "unsafe" || SafetyUnknown.String() != "safe" {
		t.Fatal("Safety.String broken")
	}
}

// recordingHooks asserts the hook dispatch points.
type recordingHooks struct {
	news, clones, refs, gets, sets, inits, spawns int
}

func (h *recordingHooks) NewConf(*Conf)            { h.news++ }
func (h *recordingHooks) CloneConf(_, _ *Conf)     { h.clones++ }
func (h *recordingHooks) RefToClone(c *Conf) *Conf { h.refs++; return c.CloneForAgent() }
func (h *recordingHooks) InterceptGet(_ *Conf, _, stored string, found bool) (string, bool) {
	h.gets++
	return stored, found
}
func (h *recordingHooks) InterceptSet(*Conf, string, string) { h.sets++ }
func (h *recordingHooks) StartInit(string)                   { h.inits++ }
func (h *recordingHooks) StopInit()                          {}
func (h *recordingHooks) Inherit(fn func()) func()           { h.spawns++; return fn }

func TestHooksDispatch(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	h := &recordingHooks{}
	rt.SetHooks(h)
	c := rt.NewConf()
	c.Set("num", "1")
	_ = c.Get("num")
	clone := c.Clone()
	ref := c.RefToClone()
	rt.StartInit("T")
	rt.StopInit()
	done := make(chan struct{})
	rt.Go(func() { close(done) })
	<-done
	if h.news != 1 || h.sets != 1 || h.gets != 1 || h.clones != 1 || h.refs != 1 || h.inits != 1 || h.spawns != 1 {
		t.Fatalf("hook counts: %+v", *h)
	}
	if ref == c {
		t.Fatal("RefToClone with hooks returned the original")
	}
	if clone == nil {
		t.Fatal("clone nil")
	}
	rt.SetHooks(nil)
	if rt.Hooks() != nil {
		t.Fatal("SetHooks(nil) did not uninstall")
	}
	if c.RefToClone() != c {
		t.Fatal("RefToClone after uninstall should be identity")
	}
}

// Property: Clone preserves every explicitly set key/value pair.
func TestClonePreservesProperty(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	fn := func(keys []uint8, vals []int32) bool {
		c := rt.NewConf()
		for i, k := range keys {
			v := "v"
			if i < len(vals) {
				v = strconv.Itoa(int(vals[i]))
			}
			c.Set("k"+strconv.Itoa(int(k)), v)
		}
		return c.Equal(c.Clone())
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SetRaw and Set store identical values (they differ only in
// agent notification).
func TestSetRawEquivalenceProperty(t *testing.T) {
	t.Parallel()
	rt := NewRuntime(testRegistry())
	fn := func(key uint8, val string) bool {
		a, b := rt.NewConf(), rt.NewConf()
		name := "p" + strconv.Itoa(int(key))
		a.Set(name, val)
		b.SetRaw(name, val)
		return a.Get(name) == b.Get(name)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
