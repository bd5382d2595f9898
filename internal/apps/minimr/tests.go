package minimr

import (
	"fmt"
	"strings"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// App returns the minimr application descriptor.
func App() *harness.App {
	return &harness.App{
		Name:        "minimr",
		Schema:      schema,
		NodeTypes:   []string{TypeMapTask, TypeReduceTask, TypeJobHistory},
		Annotations: harness.AnnotationStats{NodeLines: 9, ConfLines: 6},
		Tests:       testSuite(),
	}
}

// sampleInput builds a deterministic word stream.
func sampleInput(n int) []string {
	words := []string{"ax", "bee", "cat", "dog", "elm", "fox", "gnu", "hen"}
	out := make([]string, n)
	for i := range out {
		out[i] = words[i%len(words)]
	}
	return out
}

func testSuite() []harness.UnitTest {
	tests := []harness.UnitTest{
		{Name: "TestWordCount", Run: testWordCount},
		{Name: "TestWordCountLargeInput", Run: testWordCountLarge},
		{Name: "TestSingleShardJob", Run: testSingleShardJob},
		{Name: "TestCommitterPromotion", Run: testCommitterPromotion},
		{Name: "TestOutputFileNames", Run: testOutputFileNames},
		{Name: "TestJobHistoryRecording", Run: testJobHistoryRecording},
		{Name: "TestHistoryArchive", Run: testHistoryArchive},
		{Name: "TestTaskProfileInternals", Run: testTaskProfileInternals},
		{Name: "TestFlakyShuffleFetch", Run: testFlakyShuffleFetch},
	}
	return append(tests, functionLevelTests()...)
}

// runJob is the common prologue: the test's own configuration object is
// shared with every task node (Fig. 2d).
func runJob(t *harness.T, input []string, outDir string) (*Job, *confkit.Conf) {
	conf := t.Env.RT.NewConf()
	store := NewOutputStore()
	job := NewJob(t.Env, conf, store)
	t.NoErr(job.Run(input, outDir), "run job")
	return job, conf
}

func testWordCount(t *harness.T) {
	input := sampleInput(64)
	job, _ := runJob(t, input, "/out")
	t.NoErr(job.VerifyOutput(input, "/out"), "verify word counts")
}

func testWordCountLarge(t *harness.T) {
	input := sampleInput(512)
	job, _ := runJob(t, input, "/big")
	t.NoErr(job.VerifyOutput(input, "/big"), "verify large word counts")
}

// testSingleShardJob reconfigures nothing but uses a minimal input so the
// degenerate one-word-per-mapper path is covered.
func testSingleShardJob(t *harness.T) {
	input := []string{"solo", "solo", "duo"}
	job, _ := runJob(t, input, "/solo")
	t.NoErr(job.VerifyOutput(input, "/solo"), "verify single-shard counts")
}

// testCommitterPromotion asserts nothing is stranded under _temporary
// after the job commit — the Table 3 committer-version finding fails here.
func testCommitterPromotion(t *harness.T) {
	conf := t.Env.RT.NewConf()
	store := NewOutputStore()
	job := NewJob(t.Env, conf, store)
	input := sampleInput(32)
	t.NoErr(job.Run(input, "/commit"), "run job")
	if leftover := store.List("/commit/_temporary/"); len(leftover) != 0 {
		t.Fatalf("output stranded under _temporary after job commit: %v", leftover)
	}
	t.NoErr(job.VerifyOutput(input, "/commit"), "verify committed output")
}

// testOutputFileNames asserts the part-file names the CLIENT's
// configuration predicts — the §7.1 visibility principle: names are public
// API, so a mismatch is a true problem (Table 3:
// mapreduce.output.fileoutputformat.compress).
func testOutputFileNames(t *harness.T) {
	conf := t.Env.RT.NewConf()
	store := NewOutputStore()
	job := NewJob(t.Env, conf, store)
	input := sampleInput(24)
	t.NoErr(job.Run(input, "/named"), "run job")
	got := store.List("/named/part-")
	reduces := conf.GetInt(ParamJobReduces)
	var want []string
	for r := int64(0); r < reduces; r++ {
		want = append(want, "/named/"+OutputName(conf, r))
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("output files %v, want %v", got, want)
	}
}

func testJobHistoryRecording(t *harness.T) {
	conf := t.Env.RT.NewConf()
	jhs, err := StartJobHistoryServer(t.Env, conf)
	t.NoErr(err, "start job history server")
	t.Env.Defer(jhs.Stop)

	store := NewOutputStore()
	job := NewJob(t.Env, conf, store)
	input := sampleInput(16)
	t.NoErr(job.Run(input, "/hist"), "run job")

	conn, err := common.DialIPC(t.Env.Fabric, conf.Get(ParamHistoryAddress), conf, t.Env.Scale,
		common.SecurityFromConf(conf))
	t.NoErr(err, "dial job history server")
	t.NoErr(MethodRecord.Call(conn, HistoryEvent{JobID: "job-1", Status: "SUCCEEDED"}), "record history")
	ev, err := MethodGetHistory.Call(conn, HistoryQuery{JobID: "job-1"})
	t.NoErr(err, "query history")
	if ev.Status != "SUCCEEDED" {
		t.Fatalf("history status %q, want SUCCEEDED", ev.Status)
	}
}

// testHistoryArchive exercises the history server's slow archive RPC,
// exposing ipc.client.rpc-timeout.ms skew (Table 3, Hadoop Common).
func testHistoryArchive(t *harness.T) {
	conf := t.Env.RT.NewConf()
	jhs, err := StartJobHistoryServer(t.Env, conf)
	t.NoErr(err, "start job history server")
	t.Env.Defer(jhs.Stop)
	conn, err := common.DialIPC(t.Env.Fabric, conf.Get(ParamHistoryAddress), conf, t.Env.Scale,
		common.SecurityFromConf(conf))
	t.NoErr(err, "dial job history server")
	t.NoErr(MethodArchive.Call(conn, rpcsim.Empty{}), "archive history (slow RPC)")
}

// testTaskProfileInternals is the §7.1 private-state trap: it compares a
// task's internal flag with the client's configuration object.
func testTaskProfileInternals(t *harness.T) {
	input := sampleInput(8)
	job, conf := runJob(t, input, "/prof")
	for i, mt := range job.MapTasks() {
		if got, want := mt.ProfileEnabled(), conf.GetBool(ParamTaskProfile); got != want {
			t.Fatalf("map task %d internal profile flag %v != client-configured %v", i, got, want)
		}
	}
}

// testFlakyShuffleFetch fails nondeterministically regardless of
// configuration (hypothesis-testing fodder, §5).
func testFlakyShuffleFetch(t *harness.T) {
	input := sampleInput(16)
	job, _ := runJob(t, input, "/flaky")
	t.NoErr(job.VerifyOutput(input, "/flaky"), "verify output")
	if t.Env.Float64() < 0.25 {
		t.Fatalf("simulated race: fetcher observed a partially written map output")
	}
}

// functionLevelTests start no nodes; the pre-run filters them out.
func functionLevelTests() []harness.UnitTest {
	return []harness.UnitTest{
		{Name: "TestPartitionStability", Run: func(t *harness.T) {
			for _, w := range []string{"a", "bb", "ccc"} {
				p1, p2 := partitionOf(w, 4), partitionOf(w, 4)
				if p1 != p2 || p1 < 0 || p1 >= 4 {
					t.Fatalf("partitionOf(%q, 4) unstable or out of range: %d vs %d", w, p1, p2)
				}
			}
		}},
		{Name: "TestCountsRoundTrip", Run: func(t *harness.T) {
			in := map[string]int{"x": 3, "y": 1}
			out := make(map[string]int)
			t.NoErr(parseCounts(renderCounts(in), out), "parse rendered counts")
			if len(out) != 2 || out["x"] != 3 || out["y"] != 1 {
				t.Fatalf("round trip produced %v", out)
			}
		}},
		{Name: "TestCountsMalformed", Run: func(t *harness.T) {
			if parseCounts([]byte("not-a-record"), map[string]int{}) == nil {
				t.Fatalf("malformed record parsed successfully")
			}
		}},
		{Name: "TestOutputStoreRename", Run: func(t *harness.T) {
			s := NewOutputStore()
			s.Put("/a/x", []byte("1"))
			if !s.Rename("/a/x", "/b/x") {
				t.Fatalf("rename failed")
			}
			if _, ok := s.Get("/a/x"); ok {
				t.Fatalf("source still present after rename")
			}
			if data, ok := s.Get("/b/x"); !ok || string(data) != "1" {
				t.Fatalf("destination missing or wrong after rename")
			}
		}},
		{Name: "TestOutputNameRendering", Run: func(t *harness.T) {
			conf := t.Env.RT.NewConf()
			if got := OutputName(conf, 3); got != "part-r-00003" {
				t.Fatalf("OutputName = %q", got)
			}
			conf.SetBool(ParamOutputCompress, true)
			if got := OutputName(conf, 0); got != "part-r-00000.deflate" {
				t.Fatalf("compressed OutputName = %q", got)
			}
		}},
		{Name: "TestShardSplit", Run: func(t *harness.T) {
			input := sampleInput(10)
			shards := make([][]string, 3)
			for i, w := range input {
				shards[i%3] = append(shards[i%3], w)
			}
			total := 0
			for _, s := range shards {
				total += len(s)
			}
			if total != len(input) {
				t.Fatalf("sharding lost records: %d of %d", total, len(input))
			}
		}},
	}
}

var _ = fmt.Sprintf // keep fmt imported for future tests
