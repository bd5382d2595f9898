package minimr

import (
	"strings"
	"testing"
	"testing/quick"

	"zebraconf/internal/core/harness"
)

func newTestEnv(t *testing.T) *harness.Env {
	t.Helper()
	env := harness.NewEnv(NewRegistry(), nil, 1)
	t.Cleanup(env.Close)
	return env
}

func TestMapTaskPartitionsByOwnReduceCount(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	conf.SetInt(ParamJobReduces, 4)
	mt, err := StartMapTask(env, conf, 0, []string{"a", "b", "c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Stop()
	if mt.reduces != 4 {
		t.Fatalf("map task partitions = %d", mt.reduces)
	}
	// Fetching a partition beyond the configured count fails — the
	// job.reduces Table 3 mechanism.
	if _, err := mt.rpc(MethodFetch.Name, []byte(`{"Partition":4}`)); err == nil {
		t.Fatal("out-of-range partition served")
	}
	if _, err := mt.rpc(MethodFetch.Name, []byte(`{"Partition":3}`)); err != nil {
		t.Fatalf("in-range partition: %v", err)
	}
}

func TestReduceTaskMergesAcrossMappers(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	conf.SetInt(ParamJobMaps, 2)
	conf.SetInt(ParamJobReduces, 1)
	for i, shard := range [][]string{{"x", "y"}, {"x"}} {
		mt, err := StartMapTask(env, conf, int64(i), shard)
		if err != nil {
			t.Fatal(err)
		}
		defer mt.Stop()
	}
	store := NewOutputStore()
	rt, err := StartReduceTask(env, conf, 0, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run("/out"); err != nil {
		t.Fatal(err)
	}
	counts, err := ReadOutput(store, "/out/"+OutputName(conf, 0))
	if err != nil {
		t.Fatal(err)
	}
	if counts["x"] != 2 || counts["y"] != 1 {
		t.Fatalf("merged counts = %v", counts)
	}
}

func TestCommitterVersionsPlaceFilesDifferently(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	for _, tc := range []struct {
		version string
		path    string
	}{
		{"2", "/o/part-r-00000"},
		{"1", "/o/_temporary/part-r-00000"},
	} {
		conf := env.RT.NewConf()
		conf.Set(ParamCommitterVersion, tc.version)
		store := NewOutputStore()
		rt, err := StartReduceTask(env, conf, 0, store)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.commit("/o", []byte("k\t1\n")); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Get(tc.path); !ok {
			t.Fatalf("committer v%s did not write %s (have %v)", tc.version, tc.path, store.List("/"))
		}
	}
	conf := env.RT.NewConf()
	conf.Set(ParamCommitterVersion, "3")
	store := NewOutputStore()
	rt, _ := StartReduceTask(env, conf, 0, store)
	if err := rt.commit("/o", nil); err == nil {
		t.Fatal("unknown committer version accepted")
	}
}

func TestCompressedOutputRoundTrip(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	conf.SetBool(ParamOutputCompress, true)
	store := NewOutputStore()
	rt, err := StartReduceTask(env, conf, 0, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.commit("/z", renderCounts(map[string]int{"w": 9})); err != nil {
		t.Fatal(err)
	}
	name := OutputName(conf, 0)
	if !strings.HasSuffix(name, ".deflate") {
		t.Fatalf("compressed name = %q", name)
	}
	counts, err := ReadOutput(store, "/z/"+name)
	if err != nil {
		t.Fatal(err)
	}
	if counts["w"] != 9 {
		t.Fatalf("compressed round trip counts = %v", counts)
	}
}

func TestReadOutputMissingFile(t *testing.T) {
	t.Parallel()
	if _, err := ReadOutput(NewOutputStore(), "/nope"); err == nil {
		t.Fatal("missing output read succeeded")
	}
}

// Property: render/parse round-trips arbitrary word counts.
func TestRenderParseProperty(t *testing.T) {
	t.Parallel()
	fn := func(words []uint8, counts []uint8) bool {
		in := make(map[string]int)
		for i, w := range words {
			c := 1
			if i < len(counts) {
				c = int(counts[i]%100) + 1
			}
			in["w"+strings.Repeat("x", int(w%5))+string(rune('a'+w%26))] = c
		}
		out := make(map[string]int)
		if err := parseCounts(renderCounts(in), out); err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for k, v := range in {
			if out[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: partitionOf always lands in range and is independent of other
// words.
func TestPartitionRangeProperty(t *testing.T) {
	t.Parallel()
	fn := func(word string, rSel uint8) bool {
		r := int64(rSel%16) + 1
		p := partitionOf(word, r)
		return p >= 0 && p < r
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
