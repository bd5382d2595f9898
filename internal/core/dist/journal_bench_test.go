package dist_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
)

// BenchmarkJournalAppend prices one checkpoint record: the largest result of
// a full miniflink campaign with evidence on, appended with the default
// fsync batching.
func BenchmarkJournalAppend(b *testing.B) {
	app, err := apps.ByName("miniflink")
	if err != nil {
		b.Fatal(err)
	}
	res := campaign.Run(app, campaign.Options{Seed: 1, EvidenceMax: -1})
	var largest *campaign.ItemResult
	size := 0
	for i := range res.Items {
		rec, err := json.Marshal(res.Items[i])
		if err != nil {
			b.Fatal(err)
		}
		if len(rec) > size {
			largest, size = &res.Items[i], len(rec)
		}
	}
	j, err := dist.OpenJournal(filepath.Join(b.TempDir(), "ck.jsonl"), dist.DefaultSyncEvery)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := dist.Record{Kind: dist.KindDone, Item: largest.ID, Test: largest.Test, Result: largest}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
