package coverage

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ItemStore persists a campaign's per-test item results as raw JSON,
// keyed by test name, so -mode rerun can replay the verdicts of tests
// whose coverage digest is unchanged without re-executing them. The
// values are opaque here (campaign.ItemResult marshals them) to keep
// the import direction coverage ← campaign. The file is compact JSON
// with every record stored as given: a record json.Marshal produced
// makes the file json.Marshal(st) plus a newline, and one read back
// from an older, indented store is written back as it was read.
type ItemStore struct {
	App   string                     `json:"app"`
	Items map[string]json.RawMessage `json:"items"`
}

// ItemsPathFor locates app's item store inside a ledger directory.
func ItemsPathFor(dir, app string) string {
	return filepath.Join(dir, "items-"+app+".json")
}

// SaveItems writes the store under dir (created if needed), streaming it
// to a temporary file that replaces the previous store only once complete.
// Keys are sorted, as encoding/json sorts them. A record that is not valid
// JSON fails the save and leaves the previous store in place.
func SaveItems(dir string, st *ItemStore) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := ItemsPathFor(dir, st.App)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := writeItems(bufio.NewWriter(f), st); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// writeItems streams st as {"app":…,"items":{…}} and flushes w.
func writeItems(w *bufio.Writer, st *ItemStore) error {
	app, err := json.Marshal(st.App)
	if err != nil {
		return err
	}
	tests := make([]string, 0, len(st.Items))
	for t := range st.Items {
		tests = append(tests, t)
	}
	sort.Strings(tests)
	w.WriteString(`{"app":`)
	w.Write(app)
	w.WriteString(`,"items":{`)
	for i, t := range tests {
		rec := st.Items[t]
		if !json.Valid(rec) {
			return fmt.Errorf("item store %s: record for %s is not valid JSON", st.App, t)
		}
		key, err := json.Marshal(t)
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(key)
		w.WriteByte(':')
		w.Write(rec)
	}
	w.WriteString("}}\n")
	return w.Flush()
}

// LoadItems reads app's item store from dir; missing is (nil, nil).
func LoadItems(dir, app string) (*ItemStore, error) {
	b, err := os.ReadFile(ItemsPathFor(dir, app))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var st ItemStore
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("item store %s: %w", ItemsPathFor(dir, app), err)
	}
	if st.Items == nil {
		st.Items = make(map[string]json.RawMessage)
	}
	return &st, nil
}
