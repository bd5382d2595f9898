package forensics

import (
	"slices"
	"strings"
	"testing"

	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/obs"
)

func read(entity string, index int, param, value string) agent.ReadEvent {
	return agent.ReadEvent{Entity: entity, Index: index, Param: param, Value: value, Found: true}
}

func TestFirstDivergent(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		reads []agent.ReadEvent
		want  int
	}{
		{"empty", nil, -1},
		{"single entity never diverges", []agent.ReadEvent{
			read("NameNode", 0, "p", "a"),
			read("NameNode", 0, "p", "b"), // same instance, changed value: not heterogeneity
		}, -1},
		{"two entities same value agree", []agent.ReadEvent{
			read("NameNode", 0, "p", "a"),
			read("DataNode", 0, "p", "a"),
		}, -1},
		{"divergence at the later read", []agent.ReadEvent{
			read("NameNode", 0, "p", "a"),
			read("NameNode", 0, "q", "x"),
			read("DataNode", 1, "p", "b"),
		}, 2},
		{"params tracked independently", []agent.ReadEvent{
			read("NameNode", 0, "p", "a"),
			read("DataNode", 0, "q", "b"), // different param, no conflict
			read("DataNode", 0, "p", "a"), // same param, same value
		}, -1},
		{"found flag counts as a value", []agent.ReadEvent{
			read("NameNode", 0, "p", ""),
			{Entity: "DataNode", Index: 0, Param: "p", Value: "", Found: false},
		}, 1},
		{"same indices different entity diverge", []agent.ReadEvent{
			read("NameNode", 0, "p", "a"),
			read("DataNode", 0, "p", "b"),
		}, 1},
	}
	for _, tc := range cases {
		if got := FirstDivergent(tc.reads); got != tc.want {
			t.Errorf("%s: FirstDivergent = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestDivergentPair(t *testing.T) {
	t.Parallel()
	ev := &Evidence{
		Reads: []agent.ReadEvent{
			read("NameNode", 0, "p", "a"),
			read("DataNode", 0, "q", "z"),
			read("DataNode", 1, "p", "b"),
		},
	}
	ev.FirstDivergent = FirstDivergent(ev.Reads)
	first, earlier, ok := ev.DivergentPair()
	if !ok {
		t.Fatal("DivergentPair found nothing")
	}
	if first.Entity != "DataNode" || first.Value != "b" {
		t.Fatalf("first = %+v", first)
	}
	if earlier.Entity != "NameNode" || earlier.Value != "a" {
		t.Fatalf("earlier = %+v", earlier)
	}

	none := &Evidence{FirstDivergent: -1}
	if _, _, ok := none.DivergentPair(); ok {
		t.Fatal("DivergentPair ok on a record with no divergence")
	}
}

func TestRenderLogInsertsTruncationMarker(t *testing.T) {
	t.Parallel()
	ev := &Evidence{
		Log:             []string{"head", "tail1", "tail2"},
		LogDroppedBytes: 120,
		LogDroppedMsgs:  3,
	}
	got := ev.RenderLog()
	want := []string{"head", "…truncated 120 bytes (3 messages)…", "tail1", "tail2"}
	if len(got) != len(want) {
		t.Fatalf("RenderLog = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RenderLog[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// No drop: pass-through, no marker.
	intact := &Evidence{Log: []string{"a", "b"}}
	if got := intact.RenderLog(); len(got) != 2 {
		t.Fatalf("intact RenderLog = %v", got)
	}
}

func TestRecorderBudgetDegradesToVerdictOnly(t *testing.T) {
	t.Parallel()
	o := obs.New()
	// Budget big enough for one record but not two.
	ev := func() *Evidence {
		return &Evidence{
			App: "a", Test: "T", Msg: strings.Repeat("x", 200),
			Log:            []string{strings.Repeat("l", 100)},
			Reads:          []agent.ReadEvent{read("N", 0, "p", "v")},
			FirstDivergent: 0,
		}
	}
	rec := NewRecorder("a", ev().approxSize()+8, o)
	first := rec.Admit(ev())
	if first.VerdictOnly || len(first.Log) == 0 || len(first.Reads) == 0 {
		t.Fatalf("first record degraded within budget: %+v", first)
	}
	second := rec.Admit(ev())
	if !second.VerdictOnly || second.Log != nil || second.Reads != nil || second.FirstDivergent != -1 {
		t.Fatalf("second record not degraded past budget: %+v", second)
	}
	if second.Msg == "" {
		t.Fatal("verdict-only degradation stripped the failure message")
	}
	// Records and their degradation are counted once, when the item that
	// carries them completes (campaign.Completion), never here.
	if n := o.Metrics.CounterValue(obs.MEvidenceRecords, "app", "a") +
		o.Metrics.CounterValue(obs.MEvidenceTruncated, "app", "a", "reason", "budget"); n != 0 {
		t.Fatalf("Admit counted %d records or budget truncations, want 0", n)
	}
}

func TestRecorderCountsRingTruncations(t *testing.T) {
	t.Parallel()
	o := obs.New()
	rec := NewRecorder("a", -1, o)
	rec.Admit(&Evidence{App: "a", LogDroppedBytes: 5, LogDroppedMsgs: 1, ReadsDropped: 2, FirstDivergent: -1})
	if n := o.Metrics.CounterValue(obs.MEvidenceTruncated, "app", "a", "reason", "log"); n != 1 {
		t.Fatalf("log truncations = %d, want 1", n)
	}
	if n := o.Metrics.CounterValue(obs.MEvidenceTruncated, "app", "a", "reason", "reads"); n != 1 {
		t.Fatalf("reads truncations = %d, want 1", n)
	}
}

func TestRecorderDisabledAndUnlimited(t *testing.T) {
	t.Parallel()
	var off *Recorder
	if off.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if spec := off.Spec(); spec != (harness.CaptureSpec{}) {
		t.Fatalf("nil recorder spec = %+v", spec)
	}
	if NewRecorder("a", 0, nil) != nil {
		t.Fatal("budget 0 did not disable the recorder")
	}
	if off.Admit(nil) != nil {
		t.Fatal("nil recorder Admit(nil) != nil")
	}

	unlimited := NewRecorder("a", -1, nil)
	for i := 0; i < 64; i++ {
		ev := unlimited.Admit(&Evidence{App: "a", Log: []string{strings.Repeat("x", 1024)}, FirstDivergent: -1})
		if ev.VerdictOnly {
			t.Fatal("unlimited recorder degraded a record")
		}
	}
	spec := unlimited.Spec()
	if spec.LogBytes != DefaultLogBytes || spec.ReadEvents != DefaultReadEvents {
		t.Fatalf("spec = %+v", spec)
	}
}

// badRepros are commands ParseRepro must refuse.
var badRepros = []string{
	"",
	"rm -rf /",
	"zebraconf -mode stats",
	"zebraconf -mode run -app a -tests T",
	"zebraconf -mode run -app a -tests T -params p -seed NaN",
	"zebraconf -mode run -app a -tests T -params p -unknown x",
	// Truncated: the last flag lost its value.
	"zebraconf -mode run -app a -tests T -params p -seed",
}

func TestReproCommandRoundTrip(t *testing.T) {
	t.Parallel()
	cmd := ReproCommand("minihdfs", "TestWriteRead", "dfs.checksum.type", 42)
	rp, err := ParseRepro(cmd)
	if err != nil {
		t.Fatal(err)
	}
	want := Repro{App: "minihdfs", Tests: "TestWriteRead", Params: "dfs.checksum.type", Seed: 42}
	if rp != want {
		t.Fatalf("ParseRepro = %+v, want %+v", rp, want)
	}
	for _, bad := range badRepros {
		if _, err := ParseRepro(bad); err == nil {
			t.Errorf("ParseRepro(%q) accepted", bad)
		}
	}
}

// FuzzParseRepro holds ParseRepro to its inverse: whatever command it
// accepts, the repro command written from the result parses back to it.
func FuzzParseRepro(f *testing.F) {
	f.Add(ReproCommand("minihdfs", "TestWriteRead", "dfs.checksum.type", 42))
	for _, bad := range badRepros {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, cmd string) {
		r, err := ParseRepro(cmd)
		if err != nil {
			return
		}
		again := ReproCommand(r.App, r.Tests, r.Params, r.Seed)
		if back, err := ParseRepro(again); err != nil || back != r {
			t.Fatalf("ParseRepro(%q) = %+v, but %q parses to %+v, %v", cmd, r, again, back, err)
		}
	})
}

func TestAssignKVSorted(t *testing.T) {
	t.Parallel()
	entries := []memo.Entry{
		{Key: agent.Key{NodeType: "NameNode", NodeIndex: 0, Param: "p"}, Value: "1"},
		{Key: agent.Key{NodeType: "DataNode", NodeIndex: 1, Param: "p"}, Value: "2"},
		{Key: agent.Key{NodeType: "DataNode", NodeIndex: 0, Param: "q"}, Value: "3"},
		{Key: agent.Key{NodeType: "DataNode", NodeIndex: 0, Param: "p"}, Value: "4"},
	}
	slices.SortFunc(entries, memo.CompareEntries)
	kv := AssignKV(entries)
	order := make([]string, 0, len(kv))
	for _, e := range kv {
		order = append(order, e.Entity, e.Param)
	}
	want := []string{"DataNode", "p", "DataNode", "q", "DataNode", "p", "NameNode", "p"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("sort order = %v", kv)
		}
	}
	if kv[0].Value != "4" || kv[1].Value != "3" || kv[2].Value != "2" || kv[3].Value != "1" {
		t.Fatalf("values misordered: %v", kv)
	}
}

func TestFromOutcomeCopiesCapture(t *testing.T) {
	t.Parallel()
	out := harness.Outcome{
		Failed:          true,
		Msg:             "boom",
		Logs:            []string{"boom", "more"},
		LogDroppedBytes: 7,
		LogDroppedMsgs:  1,
		Reads: []agent.ReadEvent{
			read("NameNode", 0, "p", "a"),
			read("DataNode", 0, "p", "b"),
		},
		ReadsDropped: 3,
	}
	ev := FromOutcome("app", "T", 99, 2, out)
	if ev.App != "app" || ev.Test != "T" || ev.Seed != 99 || ev.Round != 2 {
		t.Fatalf("identity = %+v", ev)
	}
	if !ev.Failed || ev.Msg != "boom" || len(ev.Log) != 2 || ev.LogDroppedBytes != 7 || ev.ReadsDropped != 3 {
		t.Fatalf("capture = %+v", ev)
	}
	if ev.FirstDivergent != 1 {
		t.Fatalf("FirstDivergent = %d, want 1", ev.FirstDivergent)
	}
}
