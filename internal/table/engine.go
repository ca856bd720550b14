// Package table is RodentStore's storage backend (paper §2, §4): it renders
// compiled layout plans into segments on disk and serves the access-method
// API of §4.1 — scan with optional projection/predicate/order, positional
// and multidimensional getElement, cost estimation, and order_list.
//
// A table's stored form is a set of aligned vertical partitions (segments)
// over the final row stream produced by the layout pipeline. Newly inserted
// rows accumulate as unorganized tail batches ("reorganize only new data",
// paper §5); Reorganize folds them into the main layout, eagerly or lazily
// on next access.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/layout"
	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/transforms"
	"rodentstore/internal/txn"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// FoldStrategy selects the fold rendering algorithm of §4.2.
type FoldStrategy string

// Fold rendering strategies.
const (
	// FoldHash is the hash-join-like rendering (default).
	FoldHash FoldStrategy = "hash"
	// FoldNestedLoop is the paper's Algorithm 1 (two nested for loops).
	FoldNestedLoop FoldStrategy = "nestedloop"
)

// ReorgMode selects when a layout change is applied (paper §5).
type ReorgMode string

// Reorganization modes.
const (
	// ReorgEager rewrites every object immediately.
	ReorgEager ReorgMode = "eager"
	// ReorgLazy marks the table and rewrites on next access.
	ReorgLazy ReorgMode = "lazy"
)

// Engine is the storage backend over one page file.
type Engine struct {
	file  *pager.File
	cat   *catalog.Catalog
	locks *txn.Manager
	// tableLocks holds the per-table *tableLock that withLock falls back to
	// when there is no lock manager.
	tableLocks sync.Map
	// Source is where readers fetch pages: the pager itself (cold, exact
	// page counts) or a buffer.Pool wrapped around it (warm).
	Source segment.PageSource
	// Fold selects the fold rendering strategy.
	Fold FoldStrategy
	// SyncInserts makes Insert durable: the tail's rendered pages are
	// WAL-logged as images together with a catalog tail-append delta, and
	// Insert returns only after the (group-committed) fsync. The catalog is
	// updated in memory only; recovery replays the images and rebuilds the
	// catalog from the deltas, so an acknowledged insert survives a crash
	// without the publish phase ever rewriting the whole catalog. Requires
	// a lock manager; ignored without one.
	SyncInserts bool

	mu    sync.Mutex
	specs map[string]*layout.Spec // compile cache keyed by expr text

	// snapMu guards insertSnaps, the per-table cache of the layout/schema
	// snapshot Insert's prepare phase runs against. A hit skips the
	// shared-lock round and schema rebuild per insert; staleness is caught
	// by publish-time revalidation (the entry is dropped and the insert
	// retried).
	snapMu      sync.Mutex
	insertSnaps map[string]insertSnapshot

	// merge is the background tail-merge worker (nil until EnableAutoMerge).
	mergeMu sync.Mutex
	merge   *merger

	// freeMu guards the deferred-free queue. In durable (SyncInserts) mode,
	// extents a catalog update stopped referencing are not freed inline:
	// until the update is durable, a crash rolls the catalog back to a
	// version that still references them, and a reallocated extent rewritten
	// by WAL replay would corrupt that old catalog's data. Queued extents
	// are staged when a checkpoint begins and freed once it has synced the
	// file and truncated the log (the AfterCheckpoint hook), so the worst
	// crash outcome is a leaked extent.
	freeMu        sync.Mutex
	deferredFrees []pager.Extent // queued, awaiting a checkpoint
	stagedFrees   []pager.Extent // covered by the in-progress checkpoint

	// Fold counters for leveled-storage tables (see compact.go; Ext-15
	// reports them as per-merge write amplification).
	statMerges     atomic.Int64
	statMergeRows  atomic.Int64
	statMergeBytes atomic.Int64
}

// NewEngine creates an engine over an open page file and catalog. lockMgr
// may be nil: table locks are then engine-local (no lock timeouts, no
// checkpoints, no durable inserts). With a lock manager, the engine hooks
// the catalog into its checkpoint/recovery protocol: buffered catalog
// updates flush before every checkpoint, and WAL catalog deltas (durable
// tail appends) replay during recovery — so create the engine before
// calling the manager's Recover.
func NewEngine(file *pager.File, cat *catalog.Catalog, lockMgr *txn.Manager) *Engine {
	e := &Engine{
		file:        file,
		cat:         cat,
		locks:       lockMgr,
		Source:      file,
		Fold:        FoldHash,
		specs:       make(map[string]*layout.Spec),
		insertSnaps: make(map[string]insertSnapshot),
	}
	if lockMgr != nil {
		// Stage the deferred-free queue before the catalog flush: everything
		// queued by then had its catalog update already written, so this
		// checkpoint's file sync makes those updates durable and the staged
		// extents safe to free afterwards. Extents queued mid-checkpoint wait
		// for the next one.
		lockMgr.BeforeCheckpoint = func() error {
			e.freeMu.Lock()
			e.stagedFrees = append(e.stagedFrees, e.deferredFrees...)
			e.deferredFrees = nil
			e.freeMu.Unlock()
			return cat.Flush()
		}
		lockMgr.AfterCheckpoint = e.freeStaged
		lockMgr.OnRecoverCatalog = cat.ApplyTailAppend
		cat.DeferFree = e.deferFree
	}
	return e
}

// deferFree queues an extent to be freed by the next checkpoint when the
// engine runs durably; without durability there is no WAL replay to guard
// against, so it reports false and the caller frees inline.
func (e *Engine) deferFree(ext pager.Extent) bool {
	if !e.SyncInserts || e.locks == nil || ext.Count == 0 {
		return false
	}
	e.freeMu.Lock()
	e.deferredFrees = append(e.deferredFrees, ext)
	e.freeMu.Unlock()
	return true
}

// freeStaged releases the extents staged by the checkpoint that just made
// their catalog un-references durable (the Manager's AfterCheckpoint hook).
func (e *Engine) freeStaged() error {
	e.freeMu.Lock()
	staged := e.stagedFrees
	e.stagedFrees = nil
	e.freeMu.Unlock()
	for i, ext := range staged {
		if err := e.freeRun(ext); err != nil {
			// Re-queue what remains: freeing is retried by the next
			// checkpoint; losing track of it would leak the pages for good.
			e.freeMu.Lock()
			e.stagedFrees = append(e.stagedFrees, staged[i:]...)
			e.freeMu.Unlock()
			return err
		}
	}
	return nil
}

// freeRun returns an extent to the page file, first dropping its pages
// from a caching page source (the buffer pool): once reallocated, the pages
// are rewritten straight through the pager, and a cached frame would serve
// the old bytes.
func (e *Engine) freeRun(ext pager.Extent) error {
	if d, ok := e.Source.(interface{ DropExtent(pager.PageID, uint64) }); ok {
		d.DropExtent(ext.Start, ext.Count)
	}
	return e.file.FreeRun(ext.Start, ext.Count)
}

// freeSegment frees one segment's extent — deferred to the next checkpoint
// in durable mode, inline otherwise.
func (e *Engine) freeSegment(meta segment.Meta) error {
	ext := pager.Extent{Start: meta.ExtentStart, Count: meta.ExtentPages}
	if ext.Count == 0 || e.deferFree(ext) {
		return nil
	}
	return e.freeRun(ext)
}

// checkpointAfterFlip runs right after a catalog update that unreferenced
// extents (reorganize, drop) in durable mode: the checkpoint makes the new
// catalog durable and drains the deferred frees it queued. Without it the
// extents would stay unavailable until the next policy checkpoint — a delay,
// never a leak.
func (e *Engine) checkpointAfterFlip() error {
	if !e.SyncInserts || e.locks == nil {
		return nil
	}
	return e.locks.Checkpoint()
}

// tableLock is the engine-owned table lock used without a lock manager.
// It ranks first in the lock hierarchy: it is taken before the catalog.
type tableLock struct{ mu sync.RWMutex }

// withLock takes a table-level lock around fn: the lock manager's, or —
// without one — the engine's own per-table lock, so background merge
// workers still serialize with inserts and scans of the same table.
func (e *Engine) withLock(name string, mode txn.LockMode, fn func() error) error {
	if e.locks == nil {
		l, _ := e.tableLocks.LoadOrStore(name, &tableLock{})
		tl := l.(*tableLock)
		if mode == txn.Exclusive {
			tl.mu.Lock()
			defer tl.mu.Unlock()
		} else {
			tl.mu.RLock()
			defer tl.mu.RUnlock()
		}
		return fn()
	}
	t := e.locks.Begin()
	if err := t.Lock(name, mode); err != nil {
		t.Abort()
		return err
	}
	defer t.Abort() // strict 2PL release; fn writes through the pager directly
	return fn()
}

// compile resolves a layout expression against the current catalog schemas,
// with caching.
func (e *Engine) compile(exprText string) (*layout.Spec, error) {
	e.mu.Lock()
	if spec, ok := e.specs[exprText]; ok {
		e.mu.Unlock()
		return spec, nil
	}
	e.mu.Unlock()
	expr, err := algebra.Parse(exprText)
	if err != nil {
		return nil, err
	}
	schemas, err := e.cat.Schemas()
	if err != nil {
		return nil, err
	}
	spec, err := layout.Compile(expr, schemas)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.specs[exprText] = spec
	e.mu.Unlock()
	return spec, nil
}

// invalidateSpecCache drops cached plans (schemas changed).
func (e *Engine) invalidateSpecCache() {
	e.mu.Lock()
	e.specs = make(map[string]*layout.Spec)
	e.mu.Unlock()
	e.dropInsertSnap("")
}

// dropInsertSnap forgets the cached insert snapshot of one table ("" for
// all).
func (e *Engine) dropInsertSnap(name string) {
	e.snapMu.Lock()
	if name == "" {
		e.insertSnaps = make(map[string]insertSnapshot)
	} else {
		delete(e.insertSnaps, name)
	}
	e.snapMu.Unlock()
}

// Create registers a table with its logical schema and layout expression.
// Nothing is rendered until Load.
func (e *Engine) Create(name string, schema *value.Schema, layoutExpr string) error {
	return e.withLock(name, txn.Exclusive, func() error {
		if e.cat.Has(name) {
			return fmt.Errorf("table: %q already exists", name)
		}
		// Validate the layout against a catalog view that includes the new
		// table.
		schemas, err := e.cat.Schemas()
		if err != nil {
			return err
		}
		schemas[name] = schema
		expr, err := algebra.Parse(layoutExpr)
		if err != nil {
			return err
		}
		spec, err := layout.Compile(expr, schemas)
		if err != nil {
			return err
		}
		if spec.Table != name {
			return fmt.Errorf("table: layout %q is for table %q, not %q", layoutExpr, spec.Table, name)
		}
		e.invalidateSpecCache()
		return e.cat.Put(&catalog.Table{
			Name:       name,
			Fields:     catalog.FieldsOf(schema),
			LayoutExpr: expr.String(),
		})
	})
}

// Drop removes a table and frees its extents.
func (e *Engine) Drop(name string) error {
	return e.withLock(name, txn.Exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if err := e.checkpointBeforeFree(); err != nil {
			return err
		}
		if err := e.freeAll(tab); err != nil {
			return err
		}
		e.invalidateSpecCache()
		if err := e.cat.Delete(name); err != nil {
			return err
		}
		return e.checkpointAfterFlip()
	})
}

// checkpointBeforeFree forces a WAL checkpoint before extents are freed
// when durable inserts are on: freed extents can be reallocated and
// rewritten outside the log, and a stale tail image left in the log would
// be replayed over the new content after a crash. A checkpoint makes the
// applied pages durable and empties the log, closing the window.
func (e *Engine) checkpointBeforeFree() error {
	if !e.SyncInserts || e.locks == nil {
		return nil
	}
	// CheckpointBarrier, not Checkpoint: an insert that published before we
	// took this table's lock may not have logged its images yet; the
	// barrier makes its LogAppliedSince fall back to a checkpoint instead
	// of logging images of extents we are about to free.
	return e.locks.CheckpointBarrier()
}

// freeAll frees (or defers, in durable mode) every extent of a table
// snapshot.
func (e *Engine) freeAll(tab *catalog.Table) error {
	for _, s := range tab.Segments {
		if err := e.freeSegment(s.Meta); err != nil {
			return err
		}
	}
	for _, run := range tab.Runs {
		for _, s := range run.Segments {
			if err := e.freeSegment(s.Meta); err != nil {
				return err
			}
		}
	}
	for _, batch := range tab.Tails {
		for _, s := range batch {
			if err := e.freeSegment(s.Meta); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load bulk-loads rows into an empty table, rendering the layout. Rows must
// match the logical schema. Use Insert to add data afterwards.
func (e *Engine) Load(name string, rows []value.Row) error {
	return e.withLock(name, txn.Exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if tab.RowCount > 0 {
			return fmt.Errorf("table: %q already loaded (%d rows); use Insert or Reorganize", name, tab.RowCount)
		}
		schema, err := tab.Schema()
		if err != nil {
			return err
		}
		for i, r := range rows {
			if err := schema.Validate(r); err != nil {
				return fmt.Errorf("table: row %d: %w", i, err)
			}
		}
		b, err := vec.FromRows(schema, rows)
		if err != nil {
			return err
		}
		spec, err := e.compile(tab.LayoutExpr)
		if err != nil {
			return err
		}
		// Render into a private copy; Put swaps it in atomically so a
		// concurrent checkpoint flush never encodes a half-rendered table.
		work := *tab
		return e.renderWithSpec(&work, b, spec)
	})
}

// insertRetries bounds optimistic staged-insert attempts before falling
// back to preparing under the exclusive lock (only a concurrent AlterLayout
// racing every attempt can exhaust them).
const insertRetries = 4

// Insert appends rows as an unorganized tail batch. The main layout is not
// touched (the "reorganize only new data" strategy of §5); call Reorganize
// to merge, or EnableAutoMerge to have tails folded in the background.
//
// Insert is staged: validation, the per-row pipeline steps and the segment
// block encoding all run with no table lock held (concurrent inserters to
// the same table overlap this work); only the publish phase — extent
// allocation, page writes, tail append and catalog put — runs under a short
// exclusive lock. If the table's layout changes between the two phases the
// stage is thrown away and re-prepared.
//
// With SyncInserts, durability also stays off the lock: the published tail
// pages and the catalog tail-append delta are logged to the WAL and fsync'd
// (group commit) after the lock is released, so concurrent inserters'
// fsyncs coalesce. Insert then returns only once the batch is redo-durable.
// Because deltas are logged after the lock drops, two batches published in
// one order can commit in the other; recovery then rebuilds the tails in
// commit order — a permutation of unorganized batches, never a loss.
func (e *Engine) Insert(name string, rows []value.Row) error {
	if len(rows) == 0 {
		return nil
	}
	for attempt := 0; ; attempt++ {
		exclusive := attempt >= insertRetries // guaranteed-progress fallback
		pub, err := e.insertOnce(name, rows, exclusive)
		if err != nil {
			return err
		}
		if pub.ok {
			if len(pub.images) > 0 || len(pub.delta) > 0 {
				if err := e.locks.LogAppliedSince(pub.barrier, pub.images, pub.delta); err != nil {
					return err
				}
			}
			e.maybeAutoMerge(name, pub.mergeNeeded)
			return nil
		}
		e.dropInsertSnap(name) // layout moved; re-snapshot on retry
	}
}

// insertSnapshot is the catalog state a staged insert was prepared against.
type insertSnapshot struct {
	layoutExpr string
	schema     *value.Schema
}

// stagedTail is a fully encoded tail batch, ready to publish.
type stagedTail struct {
	writers []*segment.Writer
	defs    []layout.SegmentDef
	rows    int64
}

// published is the outcome of one publish phase: whether it installed the
// tail (ok=false means the layout moved and the caller must re-prepare),
// whether the merge policy fired, and — in SyncInserts mode — the page
// images, catalog delta and free-barrier value for LogAppliedSince.
type published struct {
	ok          bool
	mergeNeeded bool
	images      []txn.PageImage
	delta       []byte
	barrier     uint64
}

// insertOnce runs one prepare/publish round. With exclusivePrepare the
// whole round holds the exclusive table lock (the snapshot cannot go stale);
// otherwise prepare runs lock-free and publish revalidates the layout,
// returning ok=false when it moved. In SyncInserts mode the published page
// images and the catalog tail-append delta come back to the caller, to be
// logged after the lock is released.
func (e *Engine) insertOnce(name string, rows []value.Row, exclusivePrepare bool) (pub published, err error) {
	if exclusivePrepare {
		err = e.withLock(name, txn.Exclusive, func() error {
			tab, err := e.cat.Get(name)
			if err != nil {
				return err
			}
			schema, err := tab.Schema()
			if err != nil {
				return err
			}
			snap := insertSnapshot{layoutExpr: tab.LayoutExpr, schema: schema}
			st, err := e.prepareTail(snap, rows)
			if err != nil {
				return err
			}
			pub, err = e.publishTail(name, snap.layoutExpr, st, false)
			return err
		})
		return pub, err
	}

	snap, err := e.snapshotForInsert(name)
	if err != nil {
		return published{}, err
	}
	st, err := e.prepareTail(snap, rows)
	if err != nil {
		return published{}, err
	}
	err = e.withLock(name, txn.Exclusive, func() error {
		pub, err = e.publishTail(name, snap.layoutExpr, st, true)
		return err
	})
	return pub, err
}

// snapshotForInsert returns the table's layout and schema for the prepare
// phase: from the per-table cache when possible, else read under a brief
// shared lock (concurrent inserters snapshot in parallel). A stale cached
// snapshot is harmless — publish revalidates the layout and the insert
// retries after dropping the entry.
func (e *Engine) snapshotForInsert(name string) (insertSnapshot, error) {
	e.snapMu.Lock()
	snap, hit := e.insertSnaps[name]
	e.snapMu.Unlock()
	if hit {
		return snap, nil
	}
	err := e.withLock(name, txn.Shared, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		schema, err := tab.Schema()
		if err != nil {
			return err
		}
		snap = insertSnapshot{layoutExpr: tab.LayoutExpr, schema: schema}
		return nil
	})
	if err != nil {
		return snap, err
	}
	e.snapMu.Lock()
	e.insertSnaps[name] = snap
	e.snapMu.Unlock()
	return snap, nil
}

// prepareTail validates rows, converts them to one batch, runs the per-row
// pipeline steps (project, select — tails stay unorganized, see
// applySteps) and encodes the tail's segment blocks into memory. No locks
// held, no page I/O.
func (e *Engine) prepareTail(snap insertSnapshot, rows []value.Row) (*stagedTail, error) {
	for i, r := range rows {
		if err := snap.schema.Validate(r); err != nil {
			return nil, fmt.Errorf("table: row %d: %w", i, err)
		}
	}
	spec, err := e.compile(snap.layoutExpr)
	if err != nil {
		return nil, err
	}
	b, err := vec.FromRows(snap.schema, rows)
	if err != nil {
		return nil, err
	}
	b, _, _, err = e.applySteps(b, spec, true)
	if err != nil {
		return nil, err
	}
	st := &stagedTail{rows: int64(b.Len())}
	for _, def := range spec.Segments {
		w, err := e.stageSegment(b, def, spec.RowsPerBlock, nil)
		if err != nil {
			return nil, err
		}
		st.writers = append(st.writers, w)
		st.defs = append(st.defs, def)
	}
	return st, nil
}

// publishTail installs a staged tail batch: allocate extents, write the
// rendered pages in place, append the tail entry and bump the catalog. The
// caller holds the exclusive table lock. With revalidate, a layout mismatch
// against the prepare-time snapshot returns ok=false so the caller can
// re-prepare. Tail-only appends do not shift positions in the main
// rendering, so secondary indexes survive (IndexScan post-scans the
// unindexed suffix).
//
// In SyncInserts mode the written pages are also returned as WAL images,
// with a catalog tail-append delta (catalog.EncodeTailAppend); the caller
// logs and fsyncs both once the lock is dropped, keeping the durability
// wait off the table's critical section. The catalog itself is only updated
// in memory (PutBuffered) — rewriting the whole catalog per insert is
// O(catalog size) of serialized work, while the logged delta is O(batch)
// and replays on recovery. The image payloads alias the staged writers'
// buffers, which st keeps alive.
func (e *Engine) publishTail(name, layoutExpr string, st *stagedTail, revalidate bool) (pub published, err error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return published{}, err
	}
	if revalidate && tab.LayoutExpr != layoutExpr {
		return published{}, nil // layout moved between prepare and publish
	}
	durable := e.SyncInserts && e.locks != nil
	batch := make([]catalog.SegmentEntry, 0, len(st.writers))
	for i, w := range st.writers {
		var meta segment.Meta
		var err error
		if durable {
			var chunks [][]byte
			meta, chunks, err = w.FinishChunks()
			if err == nil {
				err = e.file.WriteRun(meta.ExtentStart, w.Buf())
				for j, chunk := range chunks {
					pub.images = append(pub.images, txn.PageImage{
						ID: meta.ExtentStart + pager.PageID(j), Payload: chunk,
					})
				}
			}
		} else {
			meta, err = w.Finish()
		}
		if err != nil {
			return published{}, err
		}
		batch = append(batch, catalog.SegmentEntry{
			Fields: st.defs[i].Fields, Codecs: st.defs[i].Codecs, Meta: meta,
		})
	}
	// Copy-on-write: the append builds a new record and Put/PutBuffered
	// swaps it in under the catalog lock, so a concurrent checkpoint flush
	// never encodes a half-applied append. Appending to the copied slice
	// only ever writes past the shared prefix's length, which readers of
	// the old record never reach.
	work := *tab
	work.Tails = append(work.Tails, batch)
	work.RowCount += st.rows
	var tailRows int64
	for _, b := range work.Tails {
		if len(b) > 0 {
			tailRows += b[0].Meta.Rows
		}
	}
	if comp := e.compactionOf(work.LayoutExpr); comp != nil {
		// Leveled-storage tables trigger their level-0 fold from the
		// policy's fanout, not the generic tail-count policy.
		pub.mergeNeeded = e.mergeActive() && len(work.Tails) >= comp.Fanout
	} else {
		pub.mergeNeeded = e.mergeTrigger(len(work.Tails), tailRows)
	}
	if durable {
		pub.delta = catalog.EncodeTailAppend(name, batch, st.rows)
		e.cat.PutBuffered(&work)
		// Captured under the table lock: any checkpointBeforeFree that
		// could free this batch's extents must take this lock first, so it
		// is ordered strictly after this read and bumps the barrier.
		pub.barrier = e.locks.Barrier()
	} else if err := e.cat.Put(&work); err != nil {
		return published{}, err
	}
	pub.ok = true
	return pub, nil
}

// AlterLayout changes the table's layout expression. ReorgEager re-renders
// immediately; ReorgLazy defers to the next access (paper §5).
func (e *Engine) AlterLayout(name, layoutExpr string, mode ReorgMode) error {
	return e.withLock(name, txn.Exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		expr, err := algebra.Parse(layoutExpr)
		if err != nil {
			return err
		}
		schemas, err := e.cat.Schemas()
		if err != nil {
			return err
		}
		spec, err := layout.Compile(expr, schemas)
		if err != nil {
			return err
		}
		if spec.Table != name {
			return fmt.Errorf("table: layout %q is for table %q, not %q", layoutExpr, spec.Table, name)
		}
		work := *tab // copy-on-write; Put swaps the finished record in
		switch mode {
		case ReorgEager:
			work.LayoutExpr = expr.String()
			work.NeedsReorg = false
			work.PendingExpr = ""
			if err := e.cat.Put(&work); err != nil {
				return err
			}
			return e.reorganizeLocked(&work)
		case ReorgLazy:
			work.PendingExpr = expr.String()
			work.NeedsReorg = true
			return e.cat.Put(&work)
		default:
			return fmt.Errorf("table: unknown reorg mode %q", mode)
		}
	})
}

// Reorganize re-renders the table under its current (or pending) layout,
// merging tail batches into the main segments.
func (e *Engine) Reorganize(name string) error {
	return e.withLock(name, txn.Exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		return e.reorganizeLocked(tab)
	})
}

// reorganizeLocked re-renders tab. Caller holds the table lock.
func (e *Engine) reorganizeLocked(tab *catalog.Table) error {
	e.dropInsertSnap(tab.Name) // the layout (pending expr) may flip below
	// Work on a private copy: the shared record — which a concurrent
	// checkpoint may flush to disk at any point — must never pair the new
	// layout with the old segments. The render's Put swaps the finished
	// copy in atomically.
	work := *tab
	tab = &work
	if tab.NeedsReorg && tab.PendingExpr != "" {
		tab.LayoutExpr = tab.PendingExpr
		tab.PendingExpr = ""
	}
	tab.NeedsReorg = false
	spec, err := e.compile(tab.LayoutExpr)
	if err != nil {
		return err
	}
	b, spec, err := e.readForRender(tab, spec)
	if err != nil {
		return err
	}
	if err := e.checkpointBeforeFree(); err != nil {
		return err
	}
	old := *tab // snapshot for extent freeing after render
	if err := e.renderWithSpec(tab, b, spec); err != nil {
		return err
	}
	if err := e.freeAll(&old); err != nil {
		return err
	}
	e.noteFullMerge(&old, tab)
	return e.checkpointAfterFlip()
}

// noteFullMerge counts a full re-render as a fold when it had tails or runs
// to absorb, so CompactStats reports the O(table) rewrite cost the plain
// path pays for the same merge schedule a compaction policy handles
// incrementally (what Ext-15 compares).
func (e *Engine) noteFullMerge(old, now *catalog.Table) {
	if len(old.Tails) == 0 && len(old.Runs) == 0 {
		return
	}
	var bytes uint64
	for _, s := range now.Segments {
		bytes += s.Meta.UsedBytes
	}
	e.statMerges.Add(1)
	e.statMergeRows.Add(now.RowCount)
	e.statMergeBytes.Add(int64(bytes))
}

// compileAgainst compiles exprText treating `name` as having the given
// schema (bypassing the catalog's logical schema).
func (e *Engine) compileAgainst(exprText, name string, schema *value.Schema) (*layout.Spec, error) {
	expr, err := algebra.Parse(exprText)
	if err != nil {
		return nil, err
	}
	schemas, err := e.cat.Schemas()
	if err != nil {
		return nil, err
	}
	schemas[name] = schema
	return layout.Compile(expr, schemas)
}

// renderWithSpec renders the batch under spec as the table's one main
// rendering and swaps the record in.
func (e *Engine) renderWithSpec(tab *catalog.Table, b *vec.Batch, spec *layout.Spec) error {
	entries, rows, bounds, err := e.renderSegments(b, spec)
	if err != nil {
		return err
	}
	tab.Segments = entries
	tab.Runs = nil // a full render collapses the run hierarchy
	tab.Tails = nil
	tab.RowCount = int64(rows)
	dropIndexes(tab)
	tab.GridBounds = nil
	for _, b := range bounds {
		tab.GridBounds = append(tab.GridBounds, catalog.GridBoundsMeta{
			Field: b.Field, Min: b.Min, Max: b.Max, Cells: b.Cells,
		})
	}
	return e.cat.Put(tab)
}

// renderSegments is the one render path load, reorganize and compaction
// share: the layout's steps run as batch operations, grid layouts order the
// rows into cell ranges, and every segment encodes its blocks straight from
// the typed columns. It returns the written segments, the rendered row
// count and the grid bounds (nil when ungridded).
func (e *Engine) renderSegments(b *vec.Batch, spec *layout.Spec) ([]catalog.SegmentEntry, int, []transforms.GridBounds, error) {
	b, cells, bounds, err := e.applySteps(b, spec, false)
	if err != nil {
		return nil, 0, nil, err
	}
	entries := make([]catalog.SegmentEntry, 0, len(spec.Segments))
	for _, def := range spec.Segments {
		w, err := e.stageSegment(b, def, spec.RowsPerBlock, cells)
		if err != nil {
			return nil, 0, nil, err
		}
		meta, err := w.Finish()
		if err != nil {
			return nil, 0, nil, err
		}
		entries = append(entries, catalog.SegmentEntry{Fields: def.Fields, Codecs: def.Codecs, Meta: meta})
	}
	return entries, b.Len(), bounds, nil
}

// viaRows is the write path's one boxed adapter: fold and unfold, whose
// semantics live in the row-at-a-time transforms, box the batch, run the
// transform and rebuild a batch from its output.
func viaRows(b *vec.Batch, fn func(transforms.Relation) (transforms.Relation, error)) (*vec.Batch, error) {
	rows := make([]value.Row, b.Len())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	rel, err := fn(transforms.Relation{Schema: b.Schema(), Rows: rows})
	if err != nil {
		return nil, err
	}
	return vec.FromRows(rel.Schema, rel.Rows)
}

// stageSegment encodes one vertical partition's blocks into an in-memory
// segment writer (no extent allocated, no page I/O — that happens when the
// caller Finishes the writer). The segment's fields are picked as columns
// of the batch; cells carries the grid's cell ranges (nil means the whole
// batch is one ungridded run).
func (e *Engine) stageSegment(b *vec.Batch, def layout.SegmentDef, rowsPerBlock int, cells []transforms.CellRun) (*segment.Writer, error) {
	proj, idx, err := b.Schema().Project(def.Fields)
	if err != nil {
		return nil, err
	}
	w, err := segment.NewWriter(e.file, segment.Spec{Fields: proj.Fields, Codecs: def.Codecs})
	if err != nil {
		return nil, err
	}
	cols := make([]*vec.Vector, len(idx))
	for i, c := range idx {
		cols[i] = &b.Cols[c]
	}
	if cells == nil {
		cells = []transforms.CellRun{{Cell: segment.NoCell, Hi: b.Len()}}
	}
	if rowsPerBlock <= 0 {
		rowsPerBlock = segment.DefaultRowsPerBlock
	}
	for _, cr := range cells {
		for lo := cr.Lo; lo < cr.Hi; lo += rowsPerBlock {
			if err := w.WriteBatch(cr.Cell, cols, lo, min(lo+rowsPerBlock, cr.Hi)); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// applySteps runs the layout pipeline over the batch: project picks
// columns, select filters with the compiled predicate, orderby and groupby
// permute rows by typed key comparisons (exactly transforms.OrderBy /
// GroupBy order), limit truncates, and fold/unfold go through the boxed
// adapter; a grid layout then groups the rows into cell runs. When
// tailOnly is true, only per-row steps run (project/select apply;
// reordering steps and the grid are skipped because tails are unorganized
// by design; fold/unfold/limit make incremental inserts ill-defined and
// are rejected).
func (e *Engine) applySteps(b *vec.Batch, spec *layout.Spec, tailOnly bool) (*vec.Batch, []transforms.CellRun, []transforms.GridBounds, error) {
	for _, st := range spec.Steps {
		var err error
		switch st.Kind {
		case layout.StepSelect:
			b, err = selectRows(b, st.Pred)
		case layout.StepProject:
			var schema *value.Schema
			var idx []int
			if schema, idx, err = b.Schema().Project(st.Fields); err == nil {
				b = b.Pick(schema, idx)
			}
		case layout.StepOrderBy:
			if tailOnly {
				continue
			}
			fields := make([]string, len(st.Keys))
			desc := make([]bool, len(st.Keys))
			for i, k := range st.Keys {
				fields[i], desc[i] = k.Field, k.Desc
			}
			var keys []*vec.Vector
			if keys, err = b.Columns(fields); err == nil {
				b = b.Take(vec.SortPerm(keys, desc, b.Len()))
			}
		case layout.StepGroupBy:
			if tailOnly {
				continue
			}
			var keys []*vec.Vector
			if keys, err = b.Columns(st.Fields); err == nil {
				b = b.Take(vec.GroupPerm(keys, b.Len()))
			}
		case layout.StepLimit:
			if tailOnly {
				return nil, nil, nil, fmt.Errorf("table: cannot Insert into a limit[] layout; Reorganize instead")
			}
			b.Truncate(st.N)
		case layout.StepFold:
			if tailOnly {
				return nil, nil, nil, fmt.Errorf("table: cannot Insert into a folded layout; Reorganize instead")
			}
			fold := transforms.FoldHash
			if e.Fold == FoldNestedLoop {
				fold = transforms.FoldNestedLoop
			}
			b, err = viaRows(b, func(rel transforms.Relation) (transforms.Relation, error) {
				return fold(rel, st.Fields, st.By)
			})
		case layout.StepUnfold:
			if tailOnly {
				return nil, nil, nil, fmt.Errorf("table: cannot Insert into an unfold layout; Reorganize instead")
			}
			b, err = viaRows(b, func(rel transforms.Relation) (transforms.Relation, error) {
				return transforms.Unfold(rel, st.Fields, st.Kinds)
			})
		default:
			err = fmt.Errorf("table: unknown step %q", st.Kind)
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if spec.Grid == nil || tailOnly {
		return b, nil, nil, nil
	}
	perm, cells, bounds, err := transforms.GridPartition(b, spec.Grid.Dims, spec.Grid.Curve)
	if err != nil {
		return nil, nil, nil, err
	}
	return b.Take(perm), cells, bounds, nil
}

// selectRows keeps the rows satisfying pred (the select step).
func selectRows(b *vec.Batch, pred algebra.Predicate) (*vec.Batch, error) {
	if err := pred.Validate(b.Schema()); err != nil {
		return nil, err
	}
	filter, err := algebra.CompilePred(pred, b.Schema())
	if err != nil {
		return nil, err
	}
	sel := filter.Filter(b, vec.FillSel(nil, b.Len()))
	if len(sel) == b.Len() {
		return b, nil
	}
	return b.Take(sel), nil
}

// readForRender reads tab's full stored content (main, runs and tails) in
// stored order into one batch, draining the scan's typed batches without
// boxing a row, and resolves the plan to re-render it with: spec itself,
// or — when the stored form dropped attributes (e.g. project[lat,lon]) —
// the layout recompiled against what is actually stored, so steps
// referencing dropped fields fail with a clear error.
func (e *Engine) readForRender(tab *catalog.Table, spec *layout.Spec) (*vec.Batch, *layout.Spec, error) {
	cur, err := e.scanStored(tab, nil, algebra.True, true)
	if err != nil {
		return nil, nil, err
	}
	defer cur.Close()
	if logical, err := tab.Schema(); err != nil {
		return nil, nil, err
	} else if cur.Schema().String() != logical.String() {
		if spec, err = e.compileAgainst(tab.LayoutExpr, tab.Name, cur.Schema()); err != nil {
			return nil, nil, fmt.Errorf("table: re-render %q: layout needs attributes the stored form dropped: %w", tab.Name, err)
		}
	}
	acc := vec.NewBatch(cur.Schema())
	for {
		b, ok, err := cur.NextBatch()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return acc, spec, nil
		}
		if err := acc.AppendBatch(b); err != nil {
			return nil, nil, err
		}
	}
}

// storedSchema reconstructs the final (stored) schema of the table from its
// segment entries.
func storedSchema(tab *catalog.Table) (*value.Schema, error) {
	logical, err := tab.Schema()
	if err != nil {
		return nil, err
	}
	entries := tab.Segments
	if len(entries) == 0 && len(tab.Runs) > 0 {
		// Never bulk-loaded: the oldest organized run carries the stored
		// schema (all runs of a table share the layout's segmentation).
		entries = tab.Runs[0].Segments
	}
	if len(entries) == 0 && len(tab.Tails) > 0 {
		// Only tails so far: they are stored in the layout's projection.
		entries = tab.Tails[0]
	}
	if len(entries) == 0 {
		return logical, nil
	}
	var fields []value.Field
	for _, seg := range entries {
		for _, f := range seg.Fields {
			i := logical.Index(f)
			if i >= 0 {
				fields = append(fields, logical.Fields[i])
				continue
			}
			// Folded synthetic field.
			fields = append(fields, value.Field{Name: f, Type: value.List})
		}
	}
	return value.NewSchema(fields...)
}
