package bench

import "testing"

func TestAggThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig(t)
	results, err := AggThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 aggregate shapes × selectivities × (vectorized, parallel).
	want := len(aggShapes) * len(AggSelectivities) * 2
	if len(results) != want {
		t.Fatalf("results: %d, want %d", len(results), want)
	}
	rows := aggRows(cfg)
	i := 0
	for _, shape := range aggShapes {
		for _, sel := range AggSelectivities {
			// The group count computed straight from the generated rows:
			// distinct g among the selected rows, or one global group.
			threshold := aggThreshold(sel)
			wantGroups := 1
			if len(shape.groupBy) > 0 {
				seen := map[int64]bool{}
				for _, row := range rows {
					if row[0].Int() < threshold {
						seen[row[1].Int()] = true
					}
				}
				wantGroups = len(seen)
			}
			vect, par := results[i], results[i+1]
			i += 2
			if vect.Mode != "vectorized" || par.Mode != "parallel" || vect.Agg != shape.agg || par.Agg != shape.agg {
				t.Fatalf("%s sel=%v: results out of order: %s/%s %s/%s", shape.agg, sel, vect.Agg, vect.Mode, par.Agg, par.Mode)
			}
			for _, r := range []AggResult{vect, par} {
				if r.Groups != wantGroups {
					t.Errorf("%s: %d groups, want %d", r.Name, r.Groups, wantGroups)
				}
				if r.Rows != int64(cfg.N) {
					t.Errorf("%s: scanned %d rows, want %d", r.Name, r.Rows, cfg.N)
				}
			}
			if par.ParallelSpeedup <= 0 {
				t.Errorf("%s: parallel speedup %v", par.Name, par.ParallelSpeedup)
			}
			if par.Gomaxprocs < 1 {
				t.Errorf("%s: parallel run did not record GOMAXPROCS", par.Name)
			}
		}
	}
}
