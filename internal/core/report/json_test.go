package report_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/report"
)

// JSON writes what json.Encoder with SetIndent("", "  ") writes, on every
// app's seed-1 campaign with its evidence.
func TestJSONIsIndentedEncoder(t *testing.T) {
	t.Parallel()
	all := apps.All()
	results := make([]*campaign.Result, len(all))
	var wg sync.WaitGroup
	for i, app := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = campaign.Run(app, campaign.Options{Seed: 1, EvidenceMax: -1})
		}()
	}
	wg.Wait()
	var want, got bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		t.Fatal(err)
	}
	if err := report.JSON(&got, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		n := 0
		for n < min(got.Len(), want.Len()) && got.Bytes()[n] == want.Bytes()[n] {
			n++
		}
		t.Fatalf("JSON wrote %d bytes, json.Encoder %d; they differ from byte %d: %.80q against %.80q",
			got.Len(), want.Len(), n, got.Bytes()[n:], want.Bytes()[n:])
	}
	if len(all) != 5 || !bytes.Contains(got.Bytes(), []byte(`"Evidence": {`)) {
		t.Fatalf("%d apps, evidence written: %v", len(all), bytes.Contains(got.Bytes(), []byte(`"Evidence": {`)))
	}
	t.Logf("%d bytes", got.Len())
}
