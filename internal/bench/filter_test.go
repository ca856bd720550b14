package bench

import "testing"

func TestFilteredScanShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig(t)
	results, err := FilteredScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(FilterSelectivities) {
		t.Fatalf("results: %d, want %d", len(results), len(FilterSelectivities))
	}
	rows := filterRows(cfg)
	for i, r := range results {
		if r.Selectivity != FilterSelectivities[i] {
			t.Fatalf("result %d: selectivity %v, want %v", i, r.Selectivity, FilterSelectivities[i])
		}
		// The matched count must be the number of generated keys below the
		// threshold, computed here straight from the rows.
		threshold := filterThreshold(r.Selectivity)
		var want int64
		for _, row := range rows {
			if row[0].Int() < threshold {
				want++
			}
		}
		if r.Matched != want {
			t.Errorf("sel=%v: matched %d, want %d", r.Selectivity, r.Matched, want)
		}
		if r.Rows != int64(cfg.N) {
			t.Errorf("sel=%v: scanned %d rows, want %d", r.Selectivity, r.Rows, cfg.N)
		}
		if r.RowsPerSec <= 0 {
			t.Errorf("sel=%v: rows/sec %v", r.Selectivity, r.RowsPerSec)
		}
	}
}
