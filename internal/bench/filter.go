package bench

import (
	"fmt"
	"math/rand"
	"time"

	"rodentstore/internal/algebra"
	"rodentstore/internal/buffer"
	"rodentstore/internal/table"
	"rodentstore/internal/value"
)

// FilterResult is one filtered-scan measurement: full-table scan rows/sec
// at a given predicate selectivity.
type FilterResult struct {
	// Name labels the run, e.g. "sel=1%".
	Name string
	// Selectivity is the fraction of rows the predicate matches.
	Selectivity float64
	// Rows is the number of table rows scanned (the input size).
	Rows int64
	// Matched is the number of rows the predicate selected.
	Matched int64
	// Ms is the wall time of the best run.
	Ms float64
	// RowsPerSec is scanned Rows / wall seconds — the per-tuple CPU cost
	// of decode, filter and late materialization.
	RowsPerSec float64
}

// FilterSelectivities is the sweep FilteredScan measures.
var FilterSelectivities = []float64{0.001, 0.01, 0.1, 1.0}

// filterKeySpace is the range of FilteredScan's uniform-random key column.
const filterKeySpace = 1 << 20

// filterRows generates FilteredScan's table: a uniform-random key k and a
// row id v, two int64 columns (16-byte rows).
func filterRows(cfg Config) []value.Row {
	r := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]value.Row, cfg.N)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(r.Intn(filterKeySpace))),
			value.NewInt(int64(i)),
		}
	}
	return rows
}

// filterThreshold is the exclusive key bound that selects sel of the keys.
func filterThreshold(sel float64) int64 { return int64(float64(filterKeySpace) * sel) }

// FilteredScan (Ext-11) measures the block executor on a CPU-bound
// filtered scan: a 16-byte-row table with a uniform-random key column,
// predicate selectivity swept from 0.1% to 100%. The buffer pool is
// pre-warmed and zone pruning disabled, so every block is decoded and the
// clock measures pure per-tuple cost: typed decode, a compiled
// selection-vector filter and late materialization, drained as batches.
// Each measurement is the best of three runs (the container jitter is
// multiplicative, not additive).
func FilteredScan(cfg Config) ([]FilterResult, error) {
	schema := value.MustSchema(
		value.Field{Name: "k", Type: value.Int},
		value.Field{Name: "v", Type: value.Int},
	)
	e, err := newEnv(cfg, "filter")
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.eng.Create("F", schema, "chunk[4096](rows(F))"); err != nil {
		return nil, err
	}
	if err := e.eng.Load("F", filterRows(cfg)); err != nil {
		return nil, err
	}
	// A pool big enough for the whole table makes every run a hot, CPU-bound
	// scan.
	pool, err := buffer.NewPool(e.file, int(e.file.NumPages())+64)
	if err != nil {
		return nil, err
	}
	e.eng.Source = pool
	if _, _, err := scanFiltered(e, algebra.True); err != nil { // warm
		return nil, err
	}

	var out []FilterResult
	for _, sel := range FilterSelectivities {
		pred := algebra.True.And("k", algebra.OpLt, value.NewInt(filterThreshold(sel)))
		best := FilterResult{Name: fmt.Sprintf("sel=%g%%", sel*100), Selectivity: sel}
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			matched, scanned, err := scanFiltered(e, pred)
			elapsed := time.Since(start)
			if err != nil {
				return nil, err
			}
			ms := float64(elapsed.Microseconds()) / 1000.0
			if rep == 0 || ms < best.Ms {
				best.Ms = ms
				best.Rows = scanned
				best.Matched = matched
			}
		}
		if secs := best.Ms / 1000.0; secs > 0 {
			best.RowsPerSec = float64(best.Rows) / secs
		}
		out = append(out, best)
	}
	return out, nil
}

// scanFiltered drains one full scan of F under pred as batches, returning
// matched and scanned row counts.
func scanFiltered(e *env, pred algebra.Predicate) (matched, scanned int64, err error) {
	cur, err := e.eng.Scan("F", table.ScanOptions{Pred: pred, NoZonePrune: true})
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	scanned, err = e.eng.RowCount("F")
	if err != nil {
		return 0, 0, err
	}
	for {
		b, ok, err := cur.NextBatch()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return matched, scanned, nil
		}
		matched += int64(b.Len())
	}
}
