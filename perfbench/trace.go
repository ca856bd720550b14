package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. Client spans wrap the benchmark's calls into the public API;
// vfs spans wrap the engine's calls into the file system.
const (
	spanOp = iota // root span of one benchmark operation
	spanScan
	spanNextBatch
	spanInsert
	spanCompact
	spanRowCount
	spanReadAt
	spanWriteAt
	spanSync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.op", "table.Scan", "table.NextBatch", "table.Insert",
	"table.Compact", "table.RowCount", "vfs.ReadAt", "vfs.WriteAt", "vfs.Sync",
}

// Layers a span's self time is charged to.
const (
	layerClient = iota
	layerTable
	layerVFS
	numLayers
)

var layerNames = [numLayers]string{"client", "table", "vfs"}

func layerOf(name int) int {
	switch {
	case name == spanOp:
		return layerClient
	case name >= spanReadAt:
		return layerVFS
	}
	return layerTable
}

type span struct {
	name   int
	tag    int   // op kind for client.op, file tag for vfs spans, else -1
	op     int32 // operation id the span belongs to (-1 outside any op)
	parent int32 // index into client spans, -1 for roots and unparented io
	start  int64 // ns since the tracer's base
	end    int64
}

// tracer records spans in memory. Client spans come from the benchmark's
// single client goroutine and are kept as a stack; io spans may come from
// any engine goroutine (prefetcher, morsel workers) and are parented
// afterwards to the client span open when they started. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	base   time.Time
	client []span
	stack  []int32
	op     int32

	mu sync.Mutex
	io []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), op: -1, client: make([]span, 0, 1<<16), io: make([]span, 0, 1<<12)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// begin opens a client span under the innermost open one.
func (t *tracer) begin(name, tag int) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if name == spanOp {
		t.op++
	}
	t.stack = append(t.stack, int32(len(t.client)))
	t.client = append(t.client, span{name: name, tag: tag, op: t.op, parent: parent, start: t.now()})
}

// end closes the innermost open client span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.client[i].end = t.now()
}

// ioSpan records a vfs call that began at start; safe from any goroutine.
func (t *tracer) ioSpan(name, tag int, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.io = append(t.io, span{name: name, tag: tag, op: -1, parent: -1, start: start, end: end})
	t.mu.Unlock()
}

// traceReport is the per-layer view of a traced phase.
type traceReport struct {
	opWallNs int64
	selfNs   [numLayers]int64
	spans    int
}

// accounted is the sum of all self times over the wall time of the root
// spans: 1.0 when the spans nest and children never overlap one another.
func (r traceReport) accounted() float64 {
	var sum int64
	for _, s := range r.selfNs {
		sum += s
	}
	return float64(sum) / float64(r.opWallNs)
}

// analyze parents io spans by time overlap and computes every span's self
// time: its duration minus the part of it that its children cover.
func (t *tracer) analyze() traceReport {
	t.mu.Lock()
	io := t.io
	t.mu.Unlock()
	sort.Slice(io, func(a, b int) bool { return io[a].start < io[b].start })
	for k := range io {
		io[k].parent, io[k].op = t.enclosing(io[k].start)
	}

	children := make([][]int, len(t.client)) // io spans are numbered after client spans
	for i, s := range t.client {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for k, s := range io {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], len(t.client)+k)
		}
	}
	at := func(i int) span {
		if i < len(t.client) {
			return t.client[i]
		}
		return io[i-len(t.client)]
	}

	var r traceReport
	r.spans = len(t.client) + len(io)
	var iv [][2]int64
	for i, s := range t.client {
		if s.name == spanOp {
			r.opWallNs += s.end - s.start
		}
		iv = iv[:0]
		for _, c := range children[i] {
			cs := at(c)
			iv = append(iv, [2]int64{max(cs.start, s.start), min(cs.end, s.end)})
		}
		r.selfNs[layerOf(s.name)] += (s.end - s.start) - unionLen(iv)
	}
	for _, s := range io {
		if s.parent >= 0 {
			r.selfNs[layerVFS] += s.end - s.start
		}
	}
	return r
}

// enclosing finds the innermost client span open at time ts.
func (t *tracer) enclosing(ts int64) (int32, int32) {
	i := sort.Search(len(t.client), func(i int) bool { return t.client[i].start > ts }) - 1
	for i >= 0 {
		if s := t.client[i]; s.end >= ts {
			return int32(i), s.op
		}
		i = int(t.client[i].parent)
	}
	return -1, -1
}

func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// dumpOps bounds the span dump to the first ops of the traced phase; the
// analysis always uses every span.
const dumpOps = 2000

// write dumps the spans of the first dumpOps ops as tab-separated text: op
// id, span id, parent span id, name, tag, start and end in ns since the
// traced phase began. Client spans are numbered from 0; io spans follow
// them.
func (t *tracer) write(path string, opKinds []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "op\tspan\tparent\tname\ttag\tstart_ns\tend_ns")
	tagName := func(s span) string {
		switch {
		case s.name == spanOp && s.tag >= 0 && s.tag < len(opKinds):
			return opKinds[s.tag]
		case s.name >= spanReadAt:
			return tagNames[s.tag]
		}
		return "-"
	}
	for i, s := range t.client {
		if s.op < dumpOps {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.op, i, s.parent, spanNames[s.name], tagName(s), s.start, s.end)
		}
	}
	for k, s := range t.io {
		if s.op < dumpOps {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.op, len(t.client)+k, s.parent, spanNames[s.name], tagName(s), s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
