package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
)

func TestJournalRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	j, err := OpenJournal(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindHeader, App: "a", Seed: 7, Items: 3},
		{Kind: KindDone, Item: 1, Test: "T1", Result: &campaign.ItemResult{ID: 1, Test: "T1", Executions: 5,
			Verdicts: []campaign.InstanceVerdict{{Param: "p", PValue: 0.25}}}},
		{Kind: KindGiveUp, Item: 2, Test: "T2", Reason: "timeout <after> 3 && more"},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Each line is json.Marshal's bytes and a newline: one journal format,
	// whichever writer produced the file.
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if !bytes.Equal(file, want) {
		t.Fatalf("journal bytes:\n got %s\nwant %s", file, want)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, recs)
	}
}

// TestJournalRefusesUnmarshalableRecord: a result that cannot be encoded
// (a NaN p-value) is refused before a byte is written, and the journal stays
// healthy — the records on either side of it are appended and read back.
func TestJournalRefusesUnmarshalableRecord(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	j, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := Record{Kind: KindDone, Item: 0, Test: "T0", Result: &campaign.ItemResult{ID: 0, Test: "T0"}}
	nan := Record{Kind: KindDone, Item: 1, Test: "T1", Result: &campaign.ItemResult{ID: 1, Test: "T1",
		Verdicts: []campaign.InstanceVerdict{{Param: "p", PValue: math.NaN()}}}}
	after := Record{Kind: KindDone, Item: 2, Test: "T2", Result: &campaign.ItemResult{ID: 2, Test: "T2"}}
	if err := j.Append(before); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(nan); err == nil {
		t.Fatal("a record with a NaN p-value was appended")
	}
	if err := j.Append(after); err != nil {
		t.Fatalf("append after a marshal failure: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Record{before, after}; !reflect.DeepEqual(got, want) {
		t.Fatalf("journal holds %+v, want %+v", got, want)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	content := `{"kind":"header","app":"a","items":1}` + "\n" +
		`{"kind":"done","item":0,"resul` // crash mid-append
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(got) != 1 || got[0].Kind != KindHeader {
		t.Fatalf("records = %+v, want just the header", got)
	}
}

// TestJournalAppendsPastTornTail: reopening a journal a killed run left —
// the resume-into-the-same-checkpoint flow — and appending must not glue
// the new records onto its last line. A fragment is cut off (ReadJournal
// drops it anyway), and a whole record missing only its newline is kept.
func TestJournalAppendsPastTornTail(t *testing.T) {
	t.Parallel()
	header := `{"kind":"header","app":"a","items":1}` + "\n"
	done := `{"kind":"done","item":0,"test":"T0"}`
	for name, tc := range map[string]struct {
		content string
		kept    []Record
	}{
		"fragment":                   {header + `{"kind":"done","item":0,"resul`, []Record{{Kind: KindHeader, App: "a", Items: 1}}},
		"bad whole line":             {header + "not json\n", []Record{{Kind: KindHeader, App: "a", Items: 1}}},
		"record without its newline": {header + done, []Record{{Kind: KindHeader, App: "a", Items: 1}, {Kind: KindDone, Test: "T0"}}},
		"only a fragment":            {`{"kind":"he`, nil},
	} {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		added := []Record{{Kind: KindHeader, App: "a", Items: 2}, {Kind: KindDone, Item: 1, Test: "T1"}}
		for _, rec := range added {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("%s: appending made the journal unreadable: %v", name, err)
		}
		if want := append(tc.kept, added...); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: journal holds %+v, want %+v", name, got, want)
		}
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	content := `{"kind":"header"}` + "\n" + `not json` + "\n" + `{"kind":"done"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("corrupt mid-file record accepted")
	}
}

// flakyFile is a journalFile whose Write/Sync fail on demand, recording
// every byte that reached it.
type flakyFile struct {
	buf        bytes.Buffer
	writeErr   error // next Writes fail with this when set
	syncErr    error // next Syncs fail with this when set
	shortAfter int   // when > 0, the next Write accepts only this many bytes
	writes     int
}

func (f *flakyFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	if f.shortAfter > 0 && len(p) > f.shortAfter {
		n := f.shortAfter
		f.shortAfter = 0
		f.buf.Write(p[:n])
		return n, errors.New("short write")
	}
	return f.buf.Write(p)
}

func (f *flakyFile) Sync() error  { return f.syncErr }
func (f *flakyFile) Close() error { return nil }

// TestJournalLatchesWriteFailure pins the mid-batch corruption fix: a
// failed (possibly short) write leaves part of a record in the OS file,
// and a later successful append would splice valid JSON into the middle
// of that partial line. The journal must refuse every append after the
// first failure so the on-disk file stays a clean prefix plus at most
// one torn tail — exactly what ReadJournal tolerates.
func TestJournalLatchesWriteFailure(t *testing.T) {
	t.Parallel()
	f := &flakyFile{}
	// syncEvery=1: every Append flushes through to the "file", so write
	// failures surface immediately rather than living in bufio's buffer.
	j := newJournal(f, 1)
	if err := j.Append(Record{Kind: KindHeader, App: "a"}); err != nil {
		t.Fatal(err)
	}
	good := f.buf.String()

	// A short write tears the next record in half on "disk".
	f.shortAfter = 5
	if err := j.Append(Record{Kind: KindDone, Item: 1}); err == nil {
		t.Fatal("short write not reported")
	}
	torn := f.buf.String()
	if torn == good {
		t.Fatal("test harness: short write wrote nothing; the splice hazard isn't exercised")
	}

	// Every later append must be refused without touching the file:
	// appending here would splice bytes after the torn fragment.
	writes := f.writes
	err := j.Append(Record{Kind: KindDone, Item: 2})
	if err == nil || !strings.Contains(err.Error(), "refusing append") {
		t.Fatalf("append after failure = %v, want refusing-append error", err)
	}
	if f.writes != writes || f.buf.String() != torn {
		t.Fatal("failed journal still wrote to the file")
	}
	if err := j.Sync(); err == nil {
		t.Fatal("sync on a failed journal must report the failure")
	}
	// Close still closes the file but reports the sticky failure.
	if err := j.Close(); err == nil {
		t.Fatal("close on a failed journal must report the failure")
	}

	// The surviving prefix is what a resume would read: the good record
	// plus a torn tail, which ReadJournal tolerates.
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn-tail file unreadable: %v", err)
	}
	if len(recs) != 1 || recs[0].Kind != KindHeader {
		t.Fatalf("resume would replay %+v, want just the header", recs)
	}
}

func TestJournalLatchesSyncFailure(t *testing.T) {
	t.Parallel()
	f := &flakyFile{syncErr: errors.New("disk gone")}
	j := newJournal(f, 1)
	if err := j.Append(Record{Kind: KindHeader}); err == nil {
		t.Fatal("sync failure not reported through Append")
	}
	if err := j.Append(Record{Kind: KindDone}); err == nil || !strings.Contains(err.Error(), "refusing append") {
		t.Fatalf("append after sync failure = %v, want refusing-append error", err)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	t.Parallel()
	opts := campaign.Options{
		MaxPool:           4,
		DisablePooling:    true,
		DisableRoundRobin: true,
		DisableGate:       true,
		Strategy:          agent.StrategyThreadOnly,
		Params:            []string{"a", "b"},
		Seed:              99,
		DisableExecCache:  true,
	}
	got := ConfigFrom(opts).CampaignOptions()
	if !reflect.DeepEqual(got, opts) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, opts)
	}
}

// The coordinator's read loop hands on every frame it decodes, and names
// why it stopped: a whole line that is not a frame is a corrupt frame; EOF,
// with or without a last line cut short, is the worker's death.
func TestReadLoopNamesCorruptFrames(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		stream string
		frames int
		reason string
	}{
		{"{\"type\":\"ready\",\"pid\":1}\n{\"type\":\"heartbeat\"}\n", 2, ""},
		{"{\"type\":\"ready\",\"pid\":1}\r\n{\"type\":\"heartbeat\"}", 2, ""},
		{"{\"type\":\"ready\",\"pid\":1}\nnot json\n{\"type\":\"heartbeat\"}\n", 1, "corrupt frame"},
		{"{\"type\":\"ready\",\"pid\":1}\n\n", 1, "corrupt frame"},
		{"{\"type\":\"ready\",\"pid\":1}\n{\"type\":\"res", 1, ""},
		// Span attributes are an object, or absent: anything else is a
		// frame no worker writes.
		{"{\"type\":\"result\",\"spans\":[{\"span\":1,\"name\":\"x\",\"start_us\":0,\"dur_us\":0,\"attrs\":{\"a\":1}}]}\n" +
			"{\"type\":\"result\",\"spans\":[{\"span\":1,\"name\":\"x\",\"start_us\":0,\"dur_us\":0,\"attrs\":null}]}\n" +
			"{\"type\":\"result\",\"spans\":[{\"span\":1,\"name\":\"x\",\"start_us\":0,\"dur_us\":0,\"attrs\":[1]}]}\n", 2, "corrupt frame"},
		{"{\"type\":\"result\",\"spans\":[{\"span\":1,\"name\":\"x\",\"start_us\":0,\"dur_us\":0,\"attrs\":\"a\"}]}\n", 0, "corrupt frame"},
	} {
		s := &workerSession{msgs: make(chan Reply), readerDone: make(chan struct{})}
		go s.readLoop(strings.NewReader(c.stream))
		n := 0
		for range s.msgs {
			n++
		}
		<-s.readerDone
		if n != c.frames || s.readErr != c.reason {
			t.Errorf("%q: %d frames, reason %q; want %d, %q", c.stream, n, s.readErr, c.frames, c.reason)
		}
	}
}
