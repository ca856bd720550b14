// Command perfbench is RodentStore's end-to-end benchmark. It drives the
// public rodentstore API with one client through one of three workloads and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// splits its measured time into an untraced half and a traced half and
// reports per-layer metrics, the traced spans' self times, and the tracing
// overhead. Diagnostics (host, runtime, sizes) go to standard error.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload window --seed 1 --seconds 5 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"rodentstore"
)

// workload is one benchmark scenario. setup builds the measured store from
// scratch (generate, load, warm up) and is repeated so setup_s is a median;
// measure runs the foreground loop for d on the store of the last setup.
type workload interface {
	// opKinds names the root span kinds; the first is the foreground op.
	opKinds() []string
	setup(b *bench) (*store, error)
	// oracle computes the expected answers from the rows of the last
	// setup, outside every timed phase.
	oracle(b *bench)
	measure(b *bench, s *store, d time.Duration, tr *tracer) (*phase, error)
	// finish runs end-of-run checks on the last measured store and closes it.
	finish(b *bench, s *store) error
}

var workloads = map[string]func() workload{
	"window": func() workload { return &windowWorkload{} },
	"scan":   func() workload { return &scanWorkload{} },
	"ingest": func() workload { return &ingestWorkload{} },
}

// bench carries the run's parameters and the checks counted against
// ok_op_ratio outside the measured loops.
type bench struct {
	seed    int64
	seconds int
	dir     string

	attempted, failed int
	loadS             []float64 // table.Load duration of every setup
	recoverMs         float64
}

// check counts one verified operation; a failure is reported and never
// aborts the run.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

// phase is what one measured loop observed.
type phase struct {
	latMs     []float64 // foreground op latencies
	rows      int64     // rows counted by rows_per_s
	ops       int64     // foreground ops
	wall      time.Duration
	attempted int
	failed    int

	// Per-insert WAL syncs, counted by the ingest loop around each Insert.
	walSyncsInInsert int64

	io      [numTags]ioCounts   // vfs traffic during the loop
	stats   rodentstore.IOStats // pager counters during the loop
	compact rodentstore.CompactStats
	// Runtime counters during the loop.
	allocBytes, gcCycles, gcPauseNs uint64

	trace    *traceReport
	spanDurs [numSpanNames]spanSum // client span totals, traced phases only
	rootDurs map[int]spanSum       // client.op totals per op kind
}

type spanSum struct {
	n  int64
	ns int64
}

func (s spanSum) meanMs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / 1e6
}

// fail counts a foreground op that errored or disagreed with its oracle.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if p.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: "+format+"\n", args...)
	}
}

func (p *phase) rowsPerS() float64 { return float64(p.rows) / p.wall.Seconds() }

// loop runs op until d has passed and records its latency. op returns the
// rows it produced and whether it succeeded.
func (p *phase) loop(d time.Duration, tr *tracer, op func(i int) (int64, bool)) {
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; ; i++ {
		t0 := time.Now()
		if i > 0 && !t0.Before(deadline) {
			break
		}
		tr.begin(spanOp, 0)
		rows, ok := op(i)
		tr.end()
		p.latMs = append(p.latMs, float64(time.Since(t0))/1e6)
		p.ops++
		p.attempted++
		p.rows += rows
		if !ok {
			p.failed++
		}
	}
	p.wall = time.Since(start)
}

// observe snapshots the counters around a measured loop.
func observe(s *store, tr *tracer, body func(p *phase) error) (*phase, error) {
	p := &phase{}
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	io0 := s.fs.snapshot()
	st0 := s.db.IOStats()
	c0 := s.db.CompactionStats()
	s.fs.tracer.Store(tr)
	err := body(p)
	s.fs.tracer.Store(nil)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	io1 := s.fs.snapshot()
	st1 := s.db.IOStats()
	c1 := s.db.CompactionStats()
	for i := range io1 {
		p.io[i] = io1[i].sub(io0[i])
	}
	p.stats = rodentstore.IOStats{
		PageReads:  st1.PageReads - st0.PageReads,
		PageWrites: st1.PageWrites - st0.PageWrites,
		Seeks:      st1.Seeks - st0.Seeks,
	}
	p.compact = rodentstore.CompactStats{Merges: c1.Merges - c0.Merges, Rows: c1.Rows - c0.Rows, Bytes: c1.Bytes - c0.Bytes}
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = uint64(m1.NumGC - m0.NumGC)
	p.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if tr != nil {
		r := tr.analyze()
		p.trace = &r
		p.rootDurs = map[int]spanSum{}
		for _, sp := range tr.client {
			d := sp.end - sp.start
			p.spanDurs[sp.name].n++
			p.spanDurs[sp.name].ns += d
			if sp.name == spanOp {
				r := p.rootDurs[sp.tag]
				p.rootDurs[sp.tag] = spanSum{n: r.n + 1, ns: r.ns + d}
			}
		}
	}
	return p, err
}

// store is one database under measurement, on a counting file system.
type store struct {
	fs   *countingFS
	db   *rodentstore.DB
	path string
	rows int64 // rows stored
	// strBytes is the total string length of the rows stored.
	strBytes  int64
	poolPages int
}

func createStore(b *bench, name string, opts rodentstore.Options) (*store, error) {
	path := filepath.Join(b.dir, name+".rdnt")
	removeStore(path)
	fs := newCountingFS()
	opts.FS = fs
	db, err := rodentstore.Create(path, &opts)
	if err != nil {
		return nil, err
	}
	return &store{fs: fs, db: db, path: path, poolPages: opts.CachePages}, nil
}

func removeStore(path string) {
	_ = os.Remove(path)          // absent on first use
	_ = os.Remove(path + ".wal") // likewise
}

func (s *store) close() error {
	err := s.db.Close()
	removeStore(s.path)
	return err
}

// fileBytes is the page file plus write-ahead log size on disk.
func (s *store) fileBytes() int64 {
	var n int64
	for _, p := range []string{s.path, s.path + ".wal"} {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}

// tracesSchema is the case study's Traces(t, lat, lon, id).
var tracesSchema = []rodentstore.Field{
	{Name: "t", Type: rodentstore.Int},
	{Name: "lat", Type: rodentstore.Float},
	{Name: "lon", Type: rodentstore.Float},
	{Name: "id", Type: rodentstore.String},
}

// strBytes is the total length of the rows' id strings.
func strBytes(rows []rodentstore.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(len(r[3].Str()))
	}
	return n
}

// logicalBytes is the user data s holds: 8 bytes per int or float plus the
// string length, for Traces' three numeric columns and one string.
func (s *store) logicalBytes() int64 { return 24*s.rows + s.strBytes }

func fmtFloat(x float64) string { return fmt.Sprintf("%.17g", x) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run builds its store; setup_s is their median.
const setups = 3

func main() {
	name := flag.String("workload", "", "workload: window, scan or ingest")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 5, "measured seconds")
	traced := flag.Int("trace", 0, "1 = per-layer run with in-memory spans")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench-work"), "directory for database files and span dumps")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload window|scan|ingest, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{seed: *seed, seconds: *seconds, dir: *dir}
	res, err := run(b, *name, mk(), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(b *bench, name string, w workload, traced bool) (*result, error) {
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		name, b.seed, b.seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var setupS []float64
	var s *store
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("close setup store: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		s, err = w.setup(b)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		// Hand the previous setup's garbage back to the OS so peak RSS is
		// one setup's, not the sum of all of them.
		debug.FreeOSMemory()
	}
	w.oracle(b)
	debug.FreeOSMemory()
	fmt.Fprintf(os.Stderr, "perfbench: setup_s=%v load_s=%v\n", setupS, b.loadS)

	probeBefore := hostProbe()
	d := time.Duration(b.seconds) * time.Second
	var plain, tracedPhase *phase
	var tr *tracer
	var err error
	if !traced {
		plain, err = w.measure(b, s, d, nil)
	} else {
		plain, err = w.measure(b, s, d/2, nil)
		if err == nil {
			tr = newTracer()
			tracedPhase, err = w.measure(b, s, d/2, tr)
		}
	}
	if err != nil {
		return nil, err
	}
	probeAfter := hostProbe()
	writeAmpIO := s.fs.snapshot()
	logical := s.logicalBytes()
	fileBytes := s.fileBytes()
	rowsStored := s.rows
	fmt.Fprintf(os.Stderr, "perfbench: table rows=%d files=%d bytes, pool=%d pages of %d bytes\n",
		rowsStored, fileBytes, s.poolPages, s.db.PageSize())
	if err := w.finish(b, s); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: go alloc=%.1f B/row gc_cycles=%d gc_pause=%.3f ms\n",
		float64(plain.allocBytes)/float64(max(plain.rows, 1)), plain.gcCycles, float64(plain.gcPauseNs)/1e6)
	fmt.Fprintf(os.Stderr, "perfbench: host.probe_ms before=%.4f after=%.4f\n", probeBefore, probeAfter)

	res := &result{Metrics: map[string]metric{}}
	for _, p := range []*phase{plain, tracedPhase} {
		if p != nil {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
	}
	res.Attempted += b.attempted
	res.Failed += b.failed
	res.Correct = res.Failed == 0
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	pageW := float64(writeAmpIO[tagPage].WriteBytes)
	walW := float64(writeAmpIO[tagWAL].WriteBytes)
	if !traced {
		put("setup_s", median(setupS), "s")
		put("op_p50_ms", quantile(plain.latMs, 0.50), "ms")
		put("op_p90_ms", quantile(plain.latMs, 0.90), "ms")
		put("rows_per_s", plain.rowsPerS(), "1/s")
		put("ok_op_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
		put("write_amp", (pageW+walW)/float64(logical), "ratio")
		put("space_amp", float64(fileBytes)/float64(logical), "ratio")
		put("peak_rss_mb", peakRSSMB(), "MiB")
		return res, nil
	}

	// Per-layer metrics: counters and runtime deltas from the untraced
	// half, timings and self times from the traced half.
	ops := float64(plain.ops)
	put("table.load_s", median(b.loadS), "s")
	tp := tracedPhase
	fg := float64(tp.ops)
	put("table.scan_call_ms", float64(tp.spanDurs[spanScan].ns)/fg/1e6, "ms")
	put("table.next_batch_ms", float64(tp.spanDurs[spanNextBatch].ns)/fg/1e6, "ms")
	put("table.rows_per_op", float64(plain.rows)/ops, "count")
	put("table.insert_ms", tp.spanDurs[spanInsert].meanMs(), "ms")
	put("table.compact_ms", tp.spanDurs[spanCompact].meanMs(), "ms")
	var rootNs int64
	for _, r := range tp.rootDurs {
		rootNs += r.ns
	}
	put("table.compact_share", float64(tp.spanDurs[spanCompact].ns)/float64(rootNs), "ratio")
	put("table.query_ms", tp.rootDurs[opQuery].meanMs(), "ms")
	put("table.merges", float64(plain.compact.Merges), "count")
	put("table.merge_bytes_per_row", float64(plain.compact.Bytes)/float64(max(plain.rows, 1)), "B")
	put("pager.page_reads_per_op", float64(plain.stats.PageReads)/ops, "count")
	put("pager.seeks_per_op", float64(plain.stats.Seeks)/ops, "count")
	put("vfs.read_calls_per_op", float64(plain.io[tagPage].Reads+plain.io[tagWAL].Reads)/ops, "count")
	put("vfs.read_kib_per_op", float64(plain.io[tagPage].ReadBytes+plain.io[tagWAL].ReadBytes)/1024/ops, "KiB")
	put("pager.write_kib_per_row", pageW/1024/float64(max(rowsStored, 1)), "KiB")
	put("pager.syncs", float64(writeAmpIO[tagPage].Syncs), "count")
	put("wal.write_kib_per_row", walW/1024/float64(max(rowsStored, 1)), "KiB")
	syncsPerInsert := 0.0
	walSyncMs := 0.0
	if plain.walSyncsInInsert > 0 {
		syncsPerInsert = float64(plain.walSyncsInInsert) / ops
		walSyncMs = float64(plain.io[tagWAL].SyncNs) / float64(plain.io[tagWAL].Syncs) / 1e6
	}
	put("wal.syncs_per_insert", syncsPerInsert, "count")
	put("wal.sync_ms", walSyncMs, "ms")
	put("txn.recover_ms", b.recoverMs, "ms")
	put("go.alloc_b_per_row", float64(plain.allocBytes)/float64(max(plain.rows, 1)), "B")
	put("go.gc_cycles", float64(plain.gcCycles), "count")
	put("go.gc_pause_ms", float64(plain.gcPauseNs)/1e6, "ms")
	put("host.probe_ms", (probeBefore+probeAfter)/2, "ms")
	put("client.op_p99_ms", quantile(plain.latMs, 0.99), "ms")
	for l, ns := range tp.trace.selfNs {
		put(layerNames[l]+".self_ms_per_op", float64(ns)/fg/1e6, "ms")
	}
	put("trace.accounted_share", tp.trace.accounted(), "ratio")
	put("trace.overhead_p50_ms", quantile(tp.latMs, 0.5)-quantile(plain.latMs, 0.5), "ms")
	put("trace.overhead_rows_per_s", tp.rowsPerS()-plain.rowsPerS(), "1/s")

	spanPath := filepath.Join(b.dir, name+".spans.tsv")
	if err := tr.write(spanPath, w.opKinds()); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tp.trace.spans, spanPath)
	return res, nil
}

// quantile is the linearly interpolated q-quantile of xs, 0 for no xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// hostProbe times a fixed random walk over 1 MiB, the median of several
// repetitions. It moves with the host's memory-system speed, not with
// RodentStore, and tells host drift apart from a code change.
func hostProbe() float64 {
	const words = 1 << 18 // 1 MiB of uint32
	next := make([]uint32, words)
	// A single cycle through all slots (Sattolo's shuffle) defeats the
	// prefetcher: every load depends on the one before it.
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := words - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	var times []float64
	var sink uint32
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		p := uint32(0)
		for k := 0; k < 4*words; k++ {
			p = next[p]
		}
		sink += p
		times = append(times, float64(time.Since(t0))/1e6)
	}
	if sink == math.MaxUint32 {
		fmt.Fprintln(os.Stderr)
	}
	return median(times)
}
