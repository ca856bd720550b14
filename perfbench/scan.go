package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"rodentstore"
	"rodentstore/internal/cartel"
)

// scanWorkload runs analytic aggregates over a column-store table about
// eight times larger than the buffer pool: each op groups one random eighth
// of the time span by car. It exercises coalesced and prefetched reads, the
// pool's bypass lane, the morsel scheduler and the vectorised aggregate
// kernels; it never reaches grid pruning or row gathering.
type scanWorkload struct {
	rows    []rodentstore.Row // generated by the last setup, until oracle
	queries []scanQuery
}

const (
	scanRows    = 500_000
	scanPool    = 2048 // frames; the table is about 8 times larger
	scanWorkers = 2
	scanQueries = 64
	scanLayout  = "chunk[1024](cols(Traces))"
)

type scanQuery struct {
	t0, t1 int64
	want   map[string]groupAgg
	rows   int64 // rows matching the predicate
}

type groupAgg struct {
	count   int64
	latSum  float64
	prodSum float64
}

var scanSpec = &rodentstore.AggregateSpec{
	GroupBy: []string{"id"},
	Aggs:    []string{"count", "avg(lat)", "sum(lat * lon)"},
}

func (w *scanWorkload) opKinds() []string { return []string{"aggregate"} }

func (w *scanWorkload) setup(b *bench) (*store, error) {
	rows := cartel.Generate(cartelConfig(scanRows, b.seed))
	w.rows = rows
	s, err := createStore(b, "scan", rodentstore.Options{CachePages: scanPool})
	if err != nil {
		return nil, err
	}
	if err := loadTable(b, s, scanLayout, rows); err != nil {
		return nil, err
	}
	if w.queries == nil {
		w.queries = scanRanges(b.seed, rows[len(rows)-1][0].Int()+1)
	}
	// Warm-up: a few ops so the pool's ghost rings and the runtime's
	// allocator settle before timing.
	for i := 0; i < 4; i++ {
		if _, err := runAggregate(s.db, w.queries[i], nil); err != nil {
			return nil, fmt.Errorf("warm-up aggregate: %w", err)
		}
	}
	return s, nil
}

// scanRanges draws the queries' time ranges, each an eighth of [0, span).
func scanRanges(seed, span int64) []scanQuery {
	width := span / 8
	r := rand.New(rand.NewSource(seed + 2))
	qs := make([]scanQuery, scanQueries)
	for i := range qs {
		qs[i].t0 = r.Int63n(span - width + 1)
		qs[i].t1 = qs[i].t0 + width
	}
	return qs
}

// oracle answers every query from the generated rows, which cartel emits
// in t order, so each time range is a contiguous slice.
func (w *scanWorkload) oracle(b *bench) {
	rows := w.rows
	w.rows = nil
	for i := range w.queries {
		q := &w.queries[i]
		lo := sort.Search(len(rows), func(i int) bool { return rows[i][0].Int() >= q.t0 })
		hi := sort.Search(len(rows), func(i int) bool { return rows[i][0].Int() >= q.t1 })
		q.want = map[string]groupAgg{}
		for _, row := range rows[lo:hi] {
			lat, lon := row[1].Float(), row[2].Float()
			g := q.want[row[3].Str()]
			g.count++
			g.latSum += lat
			g.prodSum += lat * lon
			q.want[row[3].Str()] = g
			q.rows++
		}
	}
}

func (w *scanWorkload) measure(b *bench, s *store, d time.Duration, tr *tracer) (*phase, error) {
	return observe(s, tr, func(p *phase) error {
		p.loop(d, tr, func(i int) (int64, bool) {
			qi := i % len(w.queries)
			q := w.queries[qi]
			if err := checkAggregate(s.db, q, tr); err != nil {
				p.fail("aggregate %d: %v", qi, err)
				return 0, false
			}
			return q.rows, true
		})
		return nil
	})
}

func (w *scanWorkload) finish(b *bench, s *store) error { return s.close() }

func runAggregate(db *rodentstore.DB, q scanQuery, tr *tracer) ([]rodentstore.Row, error) {
	tr.begin(spanScan, -1)
	cur, err := db.Scan("Traces", rodentstore.Query{
		Where:     fmt.Sprintf("t >= %d and t < %d", q.t0, q.t1),
		Aggregate: scanSpec,
		Parallel:  true,
		Workers:   scanWorkers,
		Prefetch:  true,
	})
	tr.end()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []rodentstore.Row
	for {
		tr.begin(spanNextBatch, -1)
		bat, ok, err := cur.NextBatch()
		tr.end()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		for i := 0; i < bat.Len(); i++ {
			out = append(out, bat.Row(i))
		}
	}
}

// checkAggregate runs q and compares every group with the oracle: counts
// exactly, avg and sum within 1e-9 relative error.
func checkAggregate(db *rodentstore.DB, q scanQuery, tr *tracer) error {
	got, err := runAggregate(db, q, tr)
	if err != nil {
		return err
	}
	if len(got) != len(q.want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(q.want))
	}
	for _, r := range got {
		id := r[0].Str()
		want, ok := q.want[id]
		if !ok {
			return fmt.Errorf("unexpected group %q", id)
		}
		if r[1].Int() != want.count {
			return fmt.Errorf("group %q: count %d, want %d", id, r[1].Int(), want.count)
		}
		if !near(r[2].Float(), want.latSum/float64(want.count)) || !near(r[3].Float(), want.prodSum) {
			return fmt.Errorf("group %q: avg(lat) %v sum(lat*lon) %v, want %v %v",
				id, r[2].Float(), r[3].Float(), want.latSum/float64(want.count), want.prodSum)
		}
	}
	return nil
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}
