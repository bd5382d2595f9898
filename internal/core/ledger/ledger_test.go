package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func record(runID, app string, params ...string) Record {
	lines := make([]string, 0, len(params))
	for _, p := range params {
		lines = append(lines, p+"\x00unsafe")
	}
	return Record{
		RunID:           runID,
		Start:           "2026-08-07T00:00:00Z",
		App:             app,
		Seed:            7,
		Flags:           map[string]string{"seed": "7", "no-pool": "true"},
		FlagsDigest:     DigestFlags(map[string]string{"seed": "7", "no-pool": "true"}),
		Reported:        params,
		ReportedDigest:  DigestReported(lines),
		Executions:      100,
		MakespanSeconds: 12.5,
	}
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	a := record("aaaa1111", "minihdfs", "dfs.checksum.type")
	b := record("bbbb2222", "minihdfs", "dfs.checksum.type")
	if err := Append(dir, a); err != nil {
		t.Fatal(err)
	}
	if err := Append(dir, b); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].RunID != "aaaa1111" || recs[1].RunID != "bbbb2222" {
		t.Fatalf("roundtrip: %+v", recs)
	}
	if recs[0].Reported[0] != "dfs.checksum.type" || recs[0].MakespanSeconds != 12.5 {
		t.Fatalf("record fields lost: %+v", recs[0])
	}
}

func TestReadMissingLedgerIsEmpty(t *testing.T) {
	recs, err := Read(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing ledger: recs=%v err=%v", recs, err)
	}
}

func TestReadSkipsCorruptTail(t *testing.T) {
	dir := t.TempDir()
	if err := Append(dir, record("aaaa1111", "minihdfs", "p")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"run_id":"trunc`) // a crash mid-append
	f.Close()
	recs, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].RunID != "aaaa1111" {
		t.Fatalf("corrupt tail not skipped: %+v", recs)
	}
}

func TestDigestsAreOrderIndependentAndSensitive(t *testing.T) {
	d1 := DigestReported([]string{"a\x00unsafe", "b\x00unsafe"})
	d2 := DigestReported([]string{"b\x00unsafe", "a\x00unsafe"})
	if d1 != d2 {
		t.Fatal("reported digest depends on order")
	}
	if d1 == DigestReported([]string{"a\x00unsafe"}) {
		t.Fatal("reported digest insensitive to membership")
	}
	f1 := DigestFlags(map[string]string{"a": "1", "b": "2"})
	f2 := DigestFlags(map[string]string{"b": "2", "a": "1"})
	if f1 != f2 {
		t.Fatal("flags digest depends on map order")
	}
	if f1 == DigestFlags(map[string]string{"a": "1", "b": "3"}) {
		t.Fatal("flags digest insensitive to values")
	}
}

func TestNewRunIDDistinguishesRuns(t *testing.T) {
	now := time.Now()
	a := NewRunID("minihdfs", 7, now, 100)
	b := NewRunID("minihdfs", 7, now.Add(time.Second), 100)
	if a == b {
		t.Fatal("run IDs collide across start times")
	}
}

func TestPickPairDefaultAndByPrefix(t *testing.T) {
	recs := []Record{
		record("aaaa1111", "minihdfs", "p"),
		record("bbbb2222", "minizk", "p"),
		record("cccc3333", "minihdfs", "p"),
		record("dddd4444", "minihdfs", "p"),
	}
	a, b, err := PickPair(recs, "minihdfs", "")
	if err != nil {
		t.Fatal(err)
	}
	if a.RunID != "cccc3333" || b.RunID != "dddd4444" {
		t.Fatalf("default pair: %s, %s", a.RunID, b.RunID)
	}
	a, b, err = PickPair(recs, "", "aaaa,dddd")
	if err != nil {
		t.Fatal(err)
	}
	if a.RunID != "aaaa1111" || b.RunID != "dddd4444" {
		t.Fatalf("prefix pair: %s, %s", a.RunID, b.RunID)
	}
	if _, _, err = PickPair(recs, "minizk", ""); err == nil {
		t.Fatal("one minizk record should not diff")
	}
	if _, _, err = PickPair(recs, "", "zzzz,aaaa"); err == nil {
		t.Fatal("unknown prefix should error")
	}
}

func TestDiffCleanAndRegression(t *testing.T) {
	a := record("aaaa1111", "minihdfs", "p1", "p2")
	b := record("bbbb2222", "minihdfs", "p1", "p2")
	d := Diff(a, b)
	if !d.Clean() || !d.FlagsMatch {
		t.Fatalf("identical runs not clean: %+v", d)
	}

	c := record("cccc3333", "minihdfs", "p1", "p3")
	d = Diff(a, c)
	if d.Clean() {
		t.Fatal("regression not detected")
	}
	if len(d.AddedParams) != 1 || d.AddedParams[0] != "p3" {
		t.Fatalf("added: %v", d.AddedParams)
	}
	if len(d.RemovedParams) != 1 || d.RemovedParams[0] != "p2" {
		t.Fatalf("removed: %v", d.RemovedParams)
	}

	var buf bytes.Buffer
	d.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "+ p3") || !strings.Contains(out, "- p2") || !strings.Contains(out, "DELTA") {
		t.Fatalf("rendered diff missing regression lines:\n%s", out)
	}

	// A line an older build wrote, with the retired -seq-margin flag and
	// perf.trials_reallocated, still loads and diffs against a current one.
	dir := t.TempDir()
	old := `{"run_id":"oooo0000","start":"2026-08-06T00:00:00Z","app":"minihdfs","seed":7,` +
		`"flags":{"no-pool":"true","seed":"7","seq-margin":"50"},"flags_digest":"old",` +
		`"reported":["p1","p2"],"reported_digest":"` + a.ReportedDigest + `",` +
		`"executions":90,"makespan_seconds":10,"perf":{"makespan_seconds":10,"trials_reallocated":12}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(dir, a); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(dir)
	if err != nil || len(recs) != 2 || recs[0].Perf == nil || recs[0].Flags["seq-margin"] != "50" {
		t.Fatalf("older ledger line read as %+v, %v", recs, err)
	}
	d = Diff(recs[0], recs[1])
	buf.Reset()
	d.Render(&buf)
	if out := buf.String(); !d.Clean() || d.FlagsMatch || !strings.Contains(out, `seq-margin: "50" -> ""`) {
		t.Fatalf("diff against an older ledger line:\n%s", out)
	}

	// A line a build with worker stall detection wrote, stalls and all:
	// the count is an unknown field now, and the diff is clean.
	stalled := `{"run_id":"ssss0000","start":"2026-10-18T00:00:00Z","app":"minihdfs","seed":7,` +
		`"flags":{"no-pool":"true","seed":"7"},"flags_digest":"` + a.FlagsDigest + `",` +
		`"reported":["p1","p2"],"reported_digest":"` + a.ReportedDigest + `",` +
		`"executions":100,"makespan_seconds":12.5,"workers":2,"worker_stalls":2}` + "\n"
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(stalled); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err = Read(dir)
	if err != nil || len(recs) != 3 || recs[2].RunID != "ssss0000" || recs[2].Workers != 2 {
		t.Fatalf("ledger line with worker_stalls read as %+v, %v", recs, err)
	}
	d = Diff(recs[2], recs[1])
	buf.Reset()
	d.Render(&buf)
	if out := buf.String(); !d.Clean() || !d.FlagsMatch || strings.Contains(out, "stalls") {
		t.Fatalf("diff of a ledger line with worker_stalls against a current one:\n%s", out)
	}
}

func TestDiffMakespan(t *testing.T) {
	a := record("aaaa1111", "minihdfs", "p")
	b := record("bbbb2222", "minihdfs", "p")
	b.MakespanSeconds = 25
	d := Diff(a, b)
	if d.MakespanDelta != 12.5 || d.MakespanRatio != 2 {
		t.Fatalf("makespan delta %.1f ratio %.1f", d.MakespanDelta, d.MakespanRatio)
	}
	if !d.Clean() {
		t.Fatal("makespan alone must not dirty the reported-set diff")
	}
}
