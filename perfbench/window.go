package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rodentstore"
	"rodentstore/internal/cartel"
)

// windowWorkload is the paper's case study (§6): 1% spatial windows over
// CarTel traces stored in the N4 layout, served from a warm buffer pool on
// the serial scan path. It exercises grid and zone pruning, pool hits,
// delta decode and the compiled filter; it never reaches the device,
// prefetch, morsels or the aggregate kernels.
type windowWorkload struct {
	rows    []rodentstore.Row // generated by the last setup, until oracle
	queries []cartel.Query
	want    []windowAnswer
}

const (
	windowRows    = 500_000
	windowPool    = 16384 // frames; the page file is about 8 MB
	windowQueries = 512
	windowLayout  = "chunk[64](delta[lat,lon](zorder(grid[lat,lon; 64,64](project[lat,lon](groupby[id](orderby[t](Traces)))))))"
)

// windowAnswer is a window's oracle: its row count and an order-insensitive
// checksum of its (lat, lon) pairs.
type windowAnswer struct {
	rows int64
	sum  uint64
}

func (w *windowWorkload) opKinds() []string { return []string{"window"} }

func (w *windowWorkload) setup(b *bench) (*store, error) {
	rows := cartel.Generate(cartelConfig(windowRows, b.seed))
	w.rows = rows
	s, err := createStore(b, "window", rodentstore.Options{CachePages: windowPool})
	if err != nil {
		return nil, err
	}
	if err := loadTable(b, s, windowLayout, rows); err != nil {
		return nil, err
	}
	// Warm-up: one full scan leaves every page in the pool.
	if _, _, err := drainWindow(s.db, rodentstore.Query{Fields: []string{"lat", "lon"}}, nil); err != nil {
		return nil, fmt.Errorf("warm-up scan: %w", err)
	}
	return s, nil
}

// oracle answers every query from the generated rows, outside any timed
// phase: points sorted by lat, so each window is a binary search plus a
// scan of about a tenth of the points.
func (w *windowWorkload) oracle(b *bench) {
	pts := make([][2]float64, len(w.rows))
	for i, r := range w.rows {
		pts[i] = [2]float64{r[1].Float(), r[2].Float()}
	}
	w.rows = nil
	sort.Slice(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
	w.queries = cartel.Queries(windowQueries, 0.01, b.seed+1)
	w.want = make([]windowAnswer, len(w.queries))
	for qi, q := range w.queries {
		i := sort.Search(len(pts), func(i int) bool { return pts[i][0] >= q.MinLat })
		var a windowAnswer
		for ; i < len(pts) && pts[i][0] < q.MaxLat; i++ {
			if lon := pts[i][1]; lon >= q.MinLon && lon < q.MaxLon {
				a.rows++
				a.sum += pointHash(pts[i][0], lon)
			}
		}
		w.want[qi] = a
	}
}

func (w *windowWorkload) measure(b *bench, s *store, d time.Duration, tr *tracer) (*phase, error) {
	return observe(s, tr, func(p *phase) error {
		p.loop(d, tr, func(i int) (int64, bool) {
			qi := i % len(w.queries)
			q := rodentstore.Query{Fields: []string{"lat", "lon"}, Where: windowPred(w.queries[qi])}
			n, sum, err := drainWindow(s.db, q, tr)
			if err != nil {
				p.fail("window %d: %v", qi, err)
				return n, false
			}
			if want := w.want[qi]; n != want.rows || sum != want.sum {
				p.fail("window %d: %d rows (checksum %x), want %d (%x)", qi, n, sum, want.rows, want.sum)
				return n, false
			}
			return n, true
		})
		return nil
	})
}

func (w *windowWorkload) finish(b *bench, s *store) error { return s.close() }

// drainWindow runs q and drains it with NextBatch, returning the row count
// and the (lat, lon) checksum of the output's first two columns.
func drainWindow(db *rodentstore.DB, q rodentstore.Query, tr *tracer) (int64, uint64, error) {
	tr.begin(spanScan, -1)
	cur, err := db.Scan("Traces", q)
	tr.end()
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	var n int64
	var sum uint64
	for {
		tr.begin(spanNextBatch, -1)
		bat, ok, err := cur.NextBatch()
		tr.end()
		if err != nil {
			return n, sum, err
		}
		if !ok {
			return n, sum, nil
		}
		lat, lon := bat.Cols[0].Float64s, bat.Cols[1].Float64s
		for i := 0; i < bat.Len(); i++ {
			sum += pointHash(lat[i], lon[i])
		}
		n += int64(bat.Len())
	}
}

// pointHash mixes a point into 64 bits; summing it over a result set gives
// a checksum independent of row order.
func pointHash(lat, lon float64) uint64 {
	return mix64(math.Float64bits(lat)*0x9e3779b97f4a7c15 ^ math.Float64bits(lon))
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func windowPred(q cartel.Query) string {
	return fmt.Sprintf("lat >= %s and lat < %s and lon >= %s and lon < %s",
		fmtFloat(q.MinLat), fmtFloat(q.MaxLat), fmtFloat(q.MinLon), fmtFloat(q.MaxLon))
}

func cartelConfig(n int, seed int64) cartel.Config {
	cfg := cartel.DefaultConfig(n)
	cfg.Seed = seed
	return cfg
}

// loadTable creates Traces under layout and bulk-loads rows, recording the
// Load call's duration as table.load_s.
func loadTable(b *bench, s *store, layout string, rows []rodentstore.Row) error {
	if err := s.db.CreateTable("Traces", tracesSchema, layout); err != nil {
		return err
	}
	t0 := time.Now()
	if err := s.db.Load("Traces", rows); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	b.loadS = append(b.loadS, time.Since(t0).Seconds())
	s.strBytes = strBytes(rows)
	s.rows = int64(len(rows))
	n, err := s.db.RowCount("Traces")
	b.check(err == nil && n == s.rows, "RowCount after Load = %d (%v), want %d", n, err, s.rows)
	return nil
}
