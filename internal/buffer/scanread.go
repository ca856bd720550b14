package buffer

// Scan-resistant coalesced reads. A large scan that leases every page it
// touches marches straight through the CLOCK shards, evicting the hot
// point-lookup working set for pages that will not be touched again — the
// classic sequential-flooding failure. ReadRunInto is the pool's coalesced
// read path with a single-touch bypass lane: resident pages are served from
// their frames (a re-reference, so they keep their place in the ring), while
// non-resident pages are read straight from the pager in one positional read
// per gap and handed to the scan WITHOUT being installed in the ring.
//
// Each bypassed page leaves its ID in a per-shard ghost ring (sized like the
// shard's frame array). A page found in the ghost ring on a later scan touch
// has proven it is re-referenced — not one-shot scan traffic — and is then
// admitted into the CLOCK ring for real. Stats.Bypassed / Stats.Admitted
// count both sides of the lane.

import (
	"rodentstore/internal/pager"
)

// ReadRunInto implements segment.RangeReader over the pool: it appends the
// payloads of npages pages starting at start to dst, serving resident pages
// from their cached frames and reading each maximal gap of non-resident
// pages from the pager with one coalesced positional read. Gap pages bypass
// the CLOCK ring (see package comment) unless the ghost ring proves them
// re-referenced. On a checksum failure in a gap the verified payload prefix
// is still appended and the error identifies the corrupt page.
func (p *Pool) ReadRunInto(dst []byte, start pager.PageID, npages uint64) ([]byte, error) {
	payload := uint64(p.file.PayloadSize())
	for i := uint64(0); i < npages; {
		id := start + pager.PageID(i)
		if p.Resident(id) {
			// Serve from the frame; LeasePage degrades to an uncached read
			// if the page was evicted (or its shard fully pinned) since the
			// probe — either way the bytes are correct.
			data, release, err := p.LeasePage(id)
			if err != nil {
				return dst, err
			}
			dst = append(dst, data...)
			if err := release(); err != nil {
				return dst, err
			}
			i++
			continue
		}
		j := i + 1
		for j < npages && !p.Resident(start+pager.PageID(j)) {
			j++
		}
		mark := len(dst)
		var err error
		dst, err = p.file.ReadRunInto(dst, id, j-i)
		for k := uint64(0); k < uint64(len(dst)-mark)/payload; k++ {
			pg := id + pager.PageID(k)
			p.shardOf(pg).noteScanPage(pg, dst[mark+int(uint64(k)*payload):mark+int((uint64(k)+1)*payload)])
		}
		if err != nil {
			return dst, err
		}
		i = j
	}
	return dst, nil
}

// noteScanPage records one bypassed scan read of page id (whose payload is
// data, borrowed only for the duration of the call). First touch goes into
// the ghost ring; a touch that finds the page already ghosted admits it into
// the CLOCK ring. Pages that became resident since the gap was computed are
// left alone.
func (sh *shard) noteScanPage(id pager.PageID, data []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.index[id]; ok {
		return
	}
	if sh.ghostIdx[id] {
		// Second touch inside the ghost window: this page is re-referenced,
		// not one-shot scan traffic — admit it. The ring slot it occupied
		// becomes a harmless tombstone, overwritten as the ring rotates.
		delete(sh.ghostIdx, id)
		if fi, err := sh.victim(); err == nil {
			buf := make([]byte, len(data))
			copy(buf, data)
			sh.frames[fi] = frame{id: id, data: buf, refbit: true, occupied: true}
			sh.index[id] = fi
			sh.admitted.Add(1)
			return
		}
		// No evictable frame right now: fall through and count a bypass.
	}
	sh.bypassed.Add(1)
	if sh.ghostIdx == nil {
		sh.ghostIdx = make(map[pager.PageID]bool, len(sh.frames))
		sh.ghost = make([]pager.PageID, 0, len(sh.frames))
	}
	if sh.ghostIdx[id] {
		return
	}
	if len(sh.ghost) < cap(sh.ghost) {
		sh.ghost = append(sh.ghost, id)
	} else {
		old := sh.ghost[sh.ghostPos]
		delete(sh.ghostIdx, old)
		sh.ghost[sh.ghostPos] = id
		sh.ghostPos = (sh.ghostPos + 1) % len(sh.ghost)
	}
	sh.ghostIdx[id] = true
}
