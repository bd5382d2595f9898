package coverage_test

import (
	"encoding/json"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
)

// BenchmarkSaveItems prices one item-store write: the records of a full
// miniflink campaign with evidence on, as -ledger persists them.
func BenchmarkSaveItems(b *testing.B) {
	app, err := apps.ByName("miniflink")
	if err != nil {
		b.Fatal(err)
	}
	res := campaign.Run(app, campaign.Options{Seed: 1, EvidenceMax: -1})
	st := &coverage.ItemStore{App: app.Name, Items: make(map[string]json.RawMessage)}
	size := 0
	for _, it := range res.Items {
		rec, err := json.Marshal(it)
		if err != nil {
			b.Fatal(err)
		}
		st.Items[it.Test] = rec
		size += len(rec)
	}
	dir := b.TempDir()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coverage.SaveItems(dir, st); err != nil {
			b.Fatal(err)
		}
	}
}
