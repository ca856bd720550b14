package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestFigure2MatchesBaseline reruns Figure 2 at the configuration recorded
// in BENCH_baseline_fig2.json and requires every deterministic counter —
// pages, seeks and seek distance per query, result rows per query, and the
// table's data pages — to equal the committed numbers exactly. These are
// the paper-figure measurements; a change to the scan executor, the
// renderer or the pager that moves any of them fails here. Wall times are
// not compared.
func TestFigure2MatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline_fig2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		Config      Config
		Experiments struct {
			Fig2 []Result
		}
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	cfg := baseline.Config
	cfg.Dir = t.TempDir()
	got, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Experiments.Fig2
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d layouts, baseline %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("layout %d: %q, baseline %q", i, g.Name, w.Name)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"PagesQuery", g.PagesQuery, w.PagesQuery},
			{"SeeksQuery", g.SeeksQuery, w.SeeksQuery},
			{"SeekDist", g.SeekDist, w.SeekDist},
			{"RowsQuery", g.RowsQuery, w.RowsQuery},
			{"DataPages", float64(g.DataPages), float64(w.DataPages)},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s = %v, baseline %v", w.Name, c.name, c.got, c.want)
			}
		}
	}
}
