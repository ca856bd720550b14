package main

import (
	"math"
	"time"

	"rodentstore"
	"rodentstore/internal/cartel"
)

// ingestWorkload is durable ingest beside reads on a leveled table: one
// client inserts 256-row batches into an empty
// leveled[4](chunk[256](delta[t](cols(Traces)))) table with DurableInserts
// (one WAL fsync per insert). Every 32 inserts it runs an oracle-checked 1%
// window query over the runs plus the 32 fresh tails, then compacts
// synchronously. It exercises the WAL, staged insert publish, fold render
// and encode, and checkpoint-deferred frees, and shows whether a fold
// change trades write cost against the read cost of runs plus tails.
//
// The insert that follows a query or a Compact pays a slower WAL fsync
// (about 0.6-0.8 ms against 0.2 ms back to back on a 2-vCPU Xeon VM). With
// a query every 8 inserts and a Compact every 16, one insert in eight fell
// into that second mode and op_p90_ms landed between the modes; running the
// query and the Compact back to back every 32 inserts leaves one in 32.
//
// The store runs without a buffer pool and without background merges: the
// pool serves stale frames for freed-and-reused pages across
// Insert/Compact/Insert, and a cursor open across a background fold's
// checkpoint can read freed extents. With one client and synchronous
// Compact every counter repeats exactly from run to run.
//
// The amount of work is fixed by -seconds (not by the clock) so that merge,
// write and sync counts repeat exactly.
type ingestWorkload struct {
	rows    []rodentstore.Row
	queries []cartel.Query
	want    []windowAnswer // window answers over the acked prefix at each query
	inserts int
}

const (
	ingestBatch        = 256
	ingestCompactEvery = 32  // inserts per query + Compact
	ingestInsertsPerS  = 240 // inserts per measured second
	ingestLayout       = "leveled[4](chunk[256](delta[t](cols(Traces))))"
)

// Root span kinds of the ingest loop.
const (
	opInsert = iota
	opCompact
	opQuery
)

func (w *ingestWorkload) opKinds() []string { return []string{"insert", "compact", "query"} }

func (w *ingestWorkload) setup(b *bench) (*store, error) {
	w.inserts = passInserts(time.Duration(b.seconds) * time.Second)
	w.rows = cartel.Generate(cartelConfig(w.inserts*ingestBatch, b.seed))
	return w.create(b)
}

func (w *ingestWorkload) create(b *bench) (*store, error) {
	s, err := createStore(b, "ingest", rodentstore.Options{DurableInserts: true})
	if err != nil {
		return nil, err
	}
	if err := s.db.CreateTable("Traces", tracesSchema, ingestLayout); err != nil {
		return nil, err
	}
	return s, nil
}

// oracle precomputes each query's answer over the rows acked before it.
func (w *ingestWorkload) oracle(b *bench) {
	nq := w.inserts / ingestCompactEvery
	w.queries = cartel.Queries(nq, 0.01, b.seed+3)
	w.want = make([]windowAnswer, nq)
	for k, q := range w.queries {
		prefix := w.rows[:(k+1)*ingestCompactEvery*ingestBatch]
		var a windowAnswer
		for _, r := range prefix {
			lat, lon := r[1].Float(), r[2].Float()
			if lat >= q.MinLat && lat < q.MaxLat && lon >= q.MinLon && lon < q.MaxLon {
				a.rows++
				a.sum += pointHash(lat, lon)
			}
		}
		w.want[k] = a
	}
}

// passInserts sizes a pass of d: ingestInsertsPerS inserts per second, plus
// half a compaction interval so that the last acked inserts are still
// unmerged tails, held only by the WAL, when the restart check abandons the
// store.
func passInserts(d time.Duration) int {
	return int(d.Seconds()*ingestInsertsPerS) + ingestCompactEvery/2
}

// measure runs one ingest pass on an empty table. A traced run makes two
// passes of half the length; the second starts again from a fresh store.
func (w *ingestWorkload) measure(b *bench, s *store, d time.Duration, tr *tracer) (*phase, error) {
	inserts := passInserts(d)
	if s.rows > 0 {
		if err := s.close(); err != nil {
			return nil, err
		}
		fresh, err := w.create(b)
		if err != nil {
			return nil, err
		}
		*s = *fresh
	}
	return observe(s, tr, func(p *phase) error {
		start := time.Now()
		for i := 0; i < inserts; i++ {
			batch := w.rows[i*ingestBatch : (i+1)*ingestBatch]
			syncs0 := s.fs.counts[tagWAL].syncs.Load()
			t0 := time.Now()
			tr.begin(spanOp, opInsert)
			tr.begin(spanInsert, -1)
			err := s.db.Insert("Traces", batch)
			tr.end()
			tr.end()
			p.latMs = append(p.latMs, float64(time.Since(t0))/1e6)
			p.walSyncsInInsert += s.fs.counts[tagWAL].syncs.Load() - syncs0
			p.ops++
			p.attempted++
			if err != nil {
				p.fail("insert %d: %v", i, err)
				continue
			}
			s.rows += ingestBatch
			p.rows += ingestBatch
			if (i+1)%ingestCompactEvery == 0 {
				w.query(p, s, tr, (i+1)/ingestCompactEvery-1)
				w.compact(p, s, tr)
			}
		}
		p.wall = time.Since(start)
		s.strBytes = strBytes(w.rows[:s.rows])
		return nil
	})
}

func (w *ingestWorkload) compact(p *phase, s *store, tr *tracer) {
	p.attempted++
	tr.begin(spanOp, opCompact)
	tr.begin(spanCompact, -1)
	err := s.db.Compact("Traces")
	tr.end()
	var n int64
	if err == nil {
		tr.begin(spanRowCount, -1)
		n, err = s.db.RowCount("Traces")
		tr.end()
	}
	tr.end()
	switch {
	case err != nil:
		p.fail("compact at %d rows: %v", s.rows, err)
	case n != s.rows:
		p.fail("RowCount after Compact = %d, want %d", n, s.rows)
	}
}

func (w *ingestWorkload) query(p *phase, s *store, tr *tracer, k int) {
	p.attempted++
	tr.begin(spanOp, opQuery)
	n, sum, err := drainWindow(s.db, rodentstore.Query{Fields: []string{"lat", "lon"}, Where: windowPred(w.queries[k])}, tr)
	tr.end()
	switch want := w.want[k]; {
	case err != nil:
		p.fail("query %d: %v", k, err)
	case n != want.rows || sum != want.sum:
		p.fail("query %d at %d rows: %d rows (checksum %x), want %d (%x)", k, s.rows, n, sum, want.rows, want.sum)
	}
}

// finish is the restart check: abandon the store without its final
// checkpoint, reopen it with DurableInserts so the WAL replays, and verify
// that every acked row is present.
func (w *ingestWorkload) finish(b *bench, s *store) error {
	s.fs.abandon()
	fs := newCountingFS()
	t0 := time.Now()
	db, err := rodentstore.OpenWithOptions(s.path, &rodentstore.Options{DurableInserts: true, FS: fs})
	b.recoverMs = float64(time.Since(t0)) / 1e6
	if err != nil {
		b.check(false, "reopen after abandon: %v", err)
		removeStore(s.path)
		return nil
	}
	re := &store{fs: fs, db: db, path: s.path}
	n, sum, err := scanAll(db)
	want := windowAnswer{rows: s.rows, sum: rowsChecksum(w.rows[:s.rows])}
	b.check(err == nil && n == want.rows && sum == want.sum,
		"restart: %d rows (checksum %x, err %v), want %d acked rows (%x)", n, sum, err, want.rows, want.sum)
	return re.close()
}

// scanAll reads every row back and checksums it like rowsChecksum.
func scanAll(db *rodentstore.DB) (int64, uint64, error) {
	cur, err := db.Scan("Traces", rodentstore.Query{})
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	var n int64
	var sum uint64
	for {
		bat, ok, err := cur.NextBatch()
		if err != nil {
			return n, sum, err
		}
		if !ok {
			return n, sum, nil
		}
		t, lat, lon, id := bat.Cols[0].Int64s, bat.Cols[1].Float64s, bat.Cols[2].Float64s, &bat.Cols[3]
		for i := 0; i < bat.Len(); i++ {
			sum += rowHash(t[i], lat[i], lon[i], id.BytesAt(i))
		}
		n += int64(bat.Len())
	}
}

func rowsChecksum(rows []rodentstore.Row) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += rowHash(r[0].Int(), r[1].Float(), r[2].Float(), []byte(r[3].Str()))
	}
	return sum
}

func rowHash(t int64, lat, lon float64, id []byte) uint64 {
	h := mix64(uint64(t)) ^ pointHash(lat, lon)
	for _, c := range id {
		h = mix64(h ^ uint64(c))
	}
	return mix64(h ^ math.Float64bits(lat))
}
