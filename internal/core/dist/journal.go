package dist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/core/campaign"
)

// Journal record kinds.
const (
	// KindHeader identifies the campaign a journal belongs to; one is
	// appended every time the journal is opened, so a resumed-and-
	// continued file carries one per session.
	KindHeader = "header"
	// KindDone records one completed work item with its full result;
	// these are the records -resume replays.
	KindDone = "done"
	// KindGiveUp records an item the coordinator quarantined after
	// exhausting its retry budget. Informational: a resumed run retries
	// such items (the crashes may have been environmental).
	KindGiveUp = "give-up"
)

// Record is one journal line.
type Record struct {
	Kind string `json:"kind"`
	// Header fields.
	App   string `json:"app,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	Items int    `json:"items,omitempty"`
	// Done / give-up fields.
	Item   int                  `json:"item,omitempty"`
	Test   string               `json:"test,omitempty"`
	Reason string               `json:"reason,omitempty"`
	Result *campaign.ItemResult `json:"result,omitempty"`
}

// journalFile is the slice of *os.File the journal needs; an interface
// so tests can inject write/sync failures.
type journalFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Journal is the crash-safe checkpoint log: JSONL, append-only, fsync'd
// every SyncEvery records (and on Close), so at most one batch of work
// is re-executed after a coordinator crash and a torn final line is the
// worst possible corruption.
//
// A journal that has seen any write or sync error is failed for good:
// a short bufio write leaves part of a line buffered, and a later
// successful Append would splice its bytes into the middle of that
// partial record — mid-file corruption ReadJournal rightly rejects as
// unresumable. Refusing every append after the first error keeps the
// file a clean prefix of valid records plus at most one torn tail.
type Journal struct {
	mu        sync.Mutex
	f         journalFile
	w         *bufio.Writer
	line      []byte // Append's encoding of one record
	pending   int
	syncEvery int
	err       error // sticky first write/sync failure
}

// DefaultSyncEvery batches this many appends per fsync.
const DefaultSyncEvery = 8

// OpenJournal opens (creating or appending) the journal at path.
// syncEvery <= 0 selects DefaultSyncEvery. A torn final line a killed
// writer left is trimmed first, so the next record starts a line of its
// own and the file stays resumable.
func OpenJournal(path string, syncEvery int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err == nil {
		if err = endOnRecord(f); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("dist: open journal: %w", err)
	}
	return newJournal(f, syncEvery), nil
}

// endOnRecord makes f end with a whole line: a final line that is not a
// record — what ReadJournal drops as torn — is cut off, and a record that
// lacks only its newline gets one.
func endOnRecord(f *os.File) error {
	lr := newLineReader(f)
	defer lr.close()
	var last []byte
	var start, next int64 // where the last line starts, and the line after it would
	var readErr error
	for {
		line, err := lr.next()
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		last = append(last[:0], line...)
		start, next = next, next+int64(len(last))+1
	}
	var rec Record
	size, err := f.Seek(0, io.SeekEnd)
	switch {
	case readErr != nil:
		err = readErr
	case err != nil:
	case next > 0 && canonjson.Decode(last, &rec, nil) != nil:
		err = f.Truncate(start)
	case next > size:
		_, err = f.Write([]byte{'\n'})
	}
	return err
}

// newJournal wraps an open file; split from OpenJournal so tests can
// inject failing files.
func newJournal(f journalFile, syncEvery int) *Journal {
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	return &Journal{f: f, w: bufio.NewWriter(f), line: getLineBuf(), syncEvery: syncEvery}
}

// Append writes one record — json.Marshal's bytes and a newline, encoded
// once into the journal's reused line buffer — and fsyncs if the batch is
// full. A record that cannot be marshalled is refused before anything is
// written and leaves the journal healthy. After any write or sync failure
// the journal is failed: every later Append (and Sync) returns the
// original error without touching the file.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return fmt.Errorf("dist: journal failed, refusing append: %w", j.err)
	}
	line, err := canonjson.Append(j.line[:0], &rec)
	if err != nil {
		return fmt.Errorf("dist: marshal journal record: %w", err)
	}
	j.line = append(line, '\n')
	if _, err := j.w.Write(j.line); err != nil {
		j.err = err
		return err
	}
	j.pending++
	if j.pending >= j.syncEvery {
		return j.syncLocked()
	}
	return nil
}

func (j *Journal) syncLocked() error {
	if j.err != nil {
		return fmt.Errorf("dist: journal failed, refusing sync: %w", j.err)
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return err
	}
	j.pending = 0
	return nil
}

// Sync flushes and fsyncs any pending records.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// Close syncs and closes the journal. A failed journal still closes its
// file, but reports the failure.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	syncErr := j.syncLocked()
	putLineBuf(j.line)
	j.line = nil
	if err := j.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// ReadJournal loads every record from path. A torn final line — the
// signature of a crash mid-append — is tolerated and dropped; a corrupt
// line anywhere else is an error, because it means the file is not the
// journal we wrote.
func ReadJournal(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dist: read journal: %w", err)
	}
	defer f.Close()

	var out []Record
	lr := newLineReader(f)
	defer lr.close()
	var in canonjson.Interner
	torn := -1 // line number of a parse failure, tolerated only at EOF
	for n := 1; ; n++ {
		line, err := lr.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dist: read journal %s: %w", path, err)
		}
		if torn >= 0 {
			return nil, fmt.Errorf("dist: journal %s: corrupt record at line %d", path, torn)
		}
		var rec Record
		if err := canonjson.Decode(line, &rec, &in); err != nil {
			torn = n
			continue
		}
		out = append(out, rec)
	}
}
