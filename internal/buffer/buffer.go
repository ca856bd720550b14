// Package buffer implements RodentStore's shared buffer pool. The paper's
// core motivation (§1) is that every new storage engine duplicates
// "transaction, lock, and memory management facilities"; the buffer pool is
// the memory-management facility shared by every layout RodentStore renders.
//
// The pool is a read cache: it holds page payloads above the pager with
// CLOCK (second-chance) eviction and pin counts. Writers go to the pager
// directly (and drop freed extents from the pool, see DropExtent), so no
// frame is ever dirty and eviction never writes. To scale with
// concurrent readers, frames are split into lock-striped shards keyed by a
// hash of the PageID: each shard has its own mutex, frame array, CLOCK hand
// and atomic hit/miss counters, so scans on different goroutines contend
// only when they touch pages in the same shard. A shard lock is never held
// across a miss's disk read — the page is fetched outside the lock and the
// insert race (two goroutines missing on the same page) is resolved by
// adopting whichever frame was installed first.
//
// Logical I/O statistics for experiments are taken at the pager, so measured
// scans run with a cold pool (or bypass it) to reproduce the paper's page
// counts.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rodentstore/internal/pager"
)

// errShardPinned marks eviction failure because every frame of the target
// shard is pinned; scan paths degrade to uncached reads instead of failing.
var errShardPinned = errors.New("all frames in shard pinned")

// errStaleFrame marks a hit on a frame whose page was freed while a reader
// still pinned it: the cached bytes may predate a rewrite of the page, so
// the access is served from the pager instead.
var errStaleFrame = errors.New("frame of a freed page still pinned")

// Stats counts pool activity, aggregated over all shards. Bypassed and
// Admitted account the scan-resistant lane (see scanread.go): pages a
// coalesced scan read pulled around the CLOCK ring, and pages that ghost
// re-reference promoted into it.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Bypassed  uint64
	Admitted  uint64
}

type frame struct {
	id       pager.PageID
	data     []byte
	pins     int
	refbit   bool // CLOCK second-chance bit
	occupied bool
	// stale marks a frame whose page was freed (DropExtent) while pinned
	// or in flight: it serves no new accesses and leaves the pool at its
	// last unpin.
	stale bool
	// pending is non-nil while the frame's disk read is in flight: the
	// frame is claimed (pinned, indexed) before the shard lock drops, so a
	// concurrent write+evict of the same page can never race a stale copy
	// into the cache. Waiters block on the channel, which closes when the
	// read completes (or fails and the frame is released).
	pending chan struct{}
}

// shard is one lock stripe of the pool: a private frame array with its own
// CLOCK hand and index.
type shard struct {
	mu     sync.Mutex
	frames []frame
	index  map[pager.PageID]int // page -> frame
	hand   int                  // CLOCK hand

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	bypassed  atomic.Uint64
	admitted  atomic.Uint64

	// Ghost ring of the scan-resistant admission lane (see scanread.go): the
	// page IDs of recent single-touch scan reads, sized like the frame array.
	// A scan page found here on its next touch is deemed re-referenced and
	// admitted to the CLOCK ring. Guarded by mu; allocated on first use so
	// pools that never see coalesced scans pay nothing.
	ghost    []pager.PageID
	ghostIdx map[pager.PageID]bool
	ghostPos int
}

// Pool is a fixed-capacity page cache. All methods are safe for concurrent
// use.
type Pool struct {
	file   *pager.File
	shards []*shard
	mask   uint64
}

// maxShards bounds lock striping; beyond this the per-shard CLOCK domains
// get too small to evict sensibly.
const maxShards = 16

// numShards picks a power-of-two shard count for a capacity, keeping at
// least 16 frames per shard so each shard's CLOCK has headroom even when
// several frames are pinned at once. Small pools (capacity < 32)
// degenerate to a single shard, which preserves the exact historical
// single-pool eviction behavior.
func numShards(capacity int) int {
	n := 1
	for n < maxShards && n*32 <= capacity {
		n *= 2
	}
	return n
}

// NewPool creates a pool with capacity frames over file, striped into
// shards (see numShards).
func NewPool(file *pager.File, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d < 1", capacity)
	}
	n := numShards(capacity)
	p := &Pool{file: file, shards: make([]*shard, n), mask: uint64(n - 1)}
	base, extra := capacity/n, capacity%n
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		p.shards[i] = &shard{
			frames: make([]frame, c),
			index:  make(map[pager.PageID]int, c),
		}
	}
	return p, nil
}

// shardOf maps a page to its shard with a Fibonacci hash, so sequential
// extents spread across stripes.
func (p *Pool) shardOf(id pager.PageID) *shard {
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15>>47)&p.mask]
}

// Lease pins page id and returns a zero-copy view of its cached payload,
// reading through the pager on a miss. The returned Lease's Data slice is
// the cached frame itself: callers must not modify it, and must not retain
// it after Release.
//
// A miss claims a frame and publishes it in the index (pinned, pending)
// *before* dropping the shard lock for the disk read, so the page can
// never be concurrently rewritten and evicted behind the reader's back —
// the interleaving that would otherwise install a stale copy. Concurrent
// accessors of an in-flight page wait for the read instead of duplicating
// it.
func (p *Pool) Lease(id pager.PageID) (Lease, error) {
	sh := p.shardOf(id)
	for {
		sh.mu.Lock()
		if fi, ok := sh.index[id]; ok {
			f := &sh.frames[fi]
			if f.pending != nil {
				ch := f.pending
				sh.mu.Unlock()
				<-ch // another goroutine's read is in flight
				continue
			}
			if f.stale {
				sh.mu.Unlock()
				return Lease{}, errStaleFrame
			}
			sh.hits.Add(1)
			f.pins++
			f.refbit = true
			data := f.data
			sh.mu.Unlock()
			return Lease{sh: sh, id: id, data: data}, nil
		}
		// Miss: claim a frame, mark the read in flight, and do the I/O
		// without holding the shard lock.
		sh.misses.Add(1)
		fi, err := sh.victim()
		if err != nil {
			sh.mu.Unlock()
			return Lease{}, err
		}
		ch := make(chan struct{})
		sh.frames[fi] = frame{id: id, pins: 1, refbit: true, occupied: true, pending: ch}
		sh.index[id] = fi
		sh.mu.Unlock()

		data, err := p.file.ReadPage(id)

		sh.mu.Lock()
		f := &sh.frames[fi]
		if err != nil {
			delete(sh.index, id)
			*f = frame{}
			sh.mu.Unlock()
			close(ch)
			return Lease{}, err
		}
		f.data = data
		f.pending = nil
		sh.mu.Unlock()
		close(ch)
		return Lease{sh: sh, id: id, data: data}, nil
	}
}

// Lease is a pinned, zero-copy view of one cached page.
type Lease struct {
	sh   *shard
	id   pager.PageID
	data []byte
}

// Data returns the cached frame payload. Valid until Release.
func (l Lease) Data() []byte { return l.data }

// Release drops the lease's pin.
func (l Lease) Release() error {
	if l.sh == nil {
		return fmt.Errorf("buffer: Release of zero Lease")
	}
	return l.sh.unpin(l.id)
}

// Get returns the payload of page id, reading it through the pager on a
// miss, and pins the frame. Callers must Unpin when done. The returned
// slice is the cached frame: callers must not modify it.
func (p *Pool) Get(id pager.PageID) ([]byte, error) {
	//lint:allow leaselease pin is transferred to the caller, who must Unpin
	l, err := p.Lease(id)
	if err != nil {
		return nil, err
	}
	return l.data, nil
}

// victim finds a free or evictable frame with the CLOCK policy. Caller
// holds sh.mu.
func (sh *shard) victim() (int, error) {
	n := len(sh.frames)
	for spin := 0; spin < 2*n+1; spin++ {
		fi := sh.hand
		sh.hand = (sh.hand + 1) % n
		f := &sh.frames[fi]
		if !f.occupied {
			return fi, nil
		}
		if f.pins > 0 || f.pending != nil {
			continue
		}
		if f.refbit {
			f.refbit = false
			continue
		}
		delete(sh.index, f.id)
		sh.evictions.Add(1)
		f.occupied = false
		return fi, nil
	}
	return 0, fmt.Errorf("buffer: %w (%d frames)", errShardPinned, n)
}

// Unpin releases one pin on page id.
func (p *Pool) Unpin(id pager.PageID) error {
	return p.shardOf(id).unpin(id)
}

func (sh *shard) unpin(id pager.PageID) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fi, ok := sh.index[id]
	if !ok {
		return fmt.Errorf("buffer: Unpin on non-resident page %d", id)
	}
	if sh.frames[fi].pins == 0 {
		return fmt.Errorf("buffer: Unpin on unpinned page %d", id)
	}
	sh.frames[fi].pins--
	if sh.frames[fi].pins == 0 && sh.frames[fi].stale {
		delete(sh.index, id)
		sh.frames[fi] = frame{}
	}
	return nil
}

// Invalidate drops every unpinned frame, so the next
// access is a cold read. Experiments call this between queries to reproduce
// the paper's cold-cache page counts. It fails if any frame is pinned.
func (p *Pool) Invalidate() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for i := range sh.frames {
			f := &sh.frames[i]
			if !f.occupied {
				continue
			}
			if f.pins > 0 {
				sh.mu.Unlock()
				return fmt.Errorf("buffer: Invalidate with pinned page %d", f.id)
			}
			delete(sh.index, f.id)
			f.occupied = false
		}
		// Forget single-touch history too: experiments expect Invalidate to
		// restore a fully cold cache, and a stale ghost ring would promote
		// the next scan's pages as if they were re-referenced.
		sh.ghost, sh.ghostIdx, sh.ghostPos = nil, nil, 0
		sh.mu.Unlock()
	}
	return nil
}

// DropExtent forgets the n pages starting at start: their frames and their
// ghost entries. The
// engine calls it when it frees an extent, before the pages can be
// reallocated and rewritten behind the pool. A frame still pinned by a
// reader (or in flight) is marked stale instead: new accesses bypass it and
// it leaves the pool at its last unpin.
func (p *Pool) DropExtent(start pager.PageID, n uint64) {
	for i := uint64(0); i < n; i++ {
		id := start + pager.PageID(i)
		sh := p.shardOf(id)
		sh.mu.Lock()
		if fi, ok := sh.index[id]; ok {
			if f := &sh.frames[fi]; f.pins > 0 || f.pending != nil {
				f.stale = true
			} else {
				delete(sh.index, id)
				*f = frame{}
			}
		}
		delete(sh.ghostIdx, id) // its ring slot becomes a harmless tombstone
		sh.mu.Unlock()
	}
}

// Resident reports whether page id is cached (for tests).
func (p *Pool) Resident(id pager.PageID) bool {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.index[id]
	return ok
}

// ReadPage returns a copy of the page payload, going through the cache.
// It adapts the pool to segment.PageSource so table scans can run warm.
// (Scans that can tolerate pinned zero-copy access use LeasePage instead.)
// Like LeasePage, it degrades to an uncached read when the page's shard is
// momentarily out of evictable frames.
func (p *Pool) ReadPage(id pager.PageID) ([]byte, error) {
	data, release, err := p.LeasePage(id)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	copy(out, data)
	if err := release(); err != nil {
		return nil, err
	}
	return out, nil
}

// LeasePage adapts the pool to segment.PageLeaser: pinned zero-copy page
// access for scan paths. If the page's shard is momentarily out of
// evictable frames (every frame pinned by concurrent scans), the read
// degrades to an uncached pager read instead of failing the scan.
func (p *Pool) LeasePage(id pager.PageID) ([]byte, func() error, error) {
	l, err := p.Lease(id)
	if err == nil {
		return l.data, l.Release, nil
	}
	if !errors.Is(err, errShardPinned) && !errors.Is(err, errStaleFrame) {
		return nil, nil, err
	}
	data, err := p.file.ReadPage(id)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}

// PayloadSize returns the underlying file's page payload size.
func (p *Pool) PayloadSize() int { return p.file.PayloadSize() }

// Stats returns a snapshot of the counters aggregated over shards.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, sh := range p.shards {
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
		s.Bypassed += sh.bypassed.Load()
		s.Admitted += sh.admitted.Load()
	}
	return s
}

// Capacity returns the total number of frames across shards.
func (p *Pool) Capacity() int {
	n := 0
	for _, sh := range p.shards {
		n += len(sh.frames)
	}
	return n
}

// Shards returns the number of lock stripes (for tests and diagnostics).
func (p *Pool) Shards() int { return len(p.shards) }
