package buffer

import (
	"math/rand"
	"path/filepath"
	"testing"

	"rodentstore/internal/pager"
)

func newPoolT(t *testing.T, frames, pages int) (*Pool, *pager.File, pager.PageID) {
	t.Helper()
	f, err := pager.Create(filepath.Join(t.TempDir(), "pool.rdnt"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	start, err := f.AllocateRun(uint64(pages))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := f.WritePage(start+pager.PageID(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPool(f, frames)
	if err != nil {
		t.Fatal(err)
	}
	return p, f, start
}

func TestNewPoolRejectsZeroCapacity(t *testing.T) {
	if _, err := NewPool(nil, 0); err == nil {
		t.Error("expected error")
	}
}

func TestGetCachesPages(t *testing.T) {
	p, f, start := newPoolT(t, 4, 8)
	d1, err := p.Get(start)
	if err != nil {
		t.Fatal(err)
	}
	if d1[0] != 0 {
		t.Errorf("wrong content: %d", d1[0])
	}
	p.Unpin(start)
	before := f.Stats().PageReads
	if _, err := p.Get(start); err != nil {
		t.Fatal(err)
	}
	p.Unpin(start)
	if got := f.Stats().PageReads; got != before {
		t.Errorf("second Get should hit cache: reads %d -> %d", before, got)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	if _, err := p.Get(start); err != nil { // pinned, never unpinned
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if _, err := p.Get(start + pager.PageID(i)); err != nil {
			t.Fatal(err)
		}
		p.Unpin(start + pager.PageID(i))
	}
	if !p.Resident(start) {
		t.Error("pinned page was evicted")
	}
}

func TestAllPinnedFails(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	p.Get(start)
	p.Get(start + 1)
	if _, err := p.Get(start + 2); err == nil {
		t.Error("expected error when all frames pinned")
	}
}

func TestUnpinErrors(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	if err := p.Unpin(start); err == nil {
		t.Error("expected error unpinning non-resident page")
	}
	p.Get(start)
	p.Unpin(start)
	if err := p.Unpin(start); err == nil {
		t.Error("expected error unpinning unpinned page")
	}
}

func TestInvalidate(t *testing.T) {
	p, f, start := newPoolT(t, 4, 4)
	if _, err := p.Get(start); err != nil {
		t.Fatal(err)
	}
	p.Unpin(start)
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if p.Resident(start) {
		t.Error("page still resident after Invalidate")
	}
	before := f.Stats().PageReads
	if _, err := p.Get(start); err != nil {
		t.Fatal(err)
	}
	p.Unpin(start)
	if f.Stats().PageReads != before+1 {
		t.Error("access after Invalidate should be a cold read")
	}
	// Invalidate with a pinned page must fail.
	p.Get(start)
	if err := p.Invalidate(); err == nil {
		t.Error("expected error invalidating with pinned page")
	}
	p.Unpin(start)
}

func TestClockSecondChance(t *testing.T) {
	// A frequently touched page should survive a scan of cold pages.
	p, _, start := newPoolT(t, 3, 16)
	hot := start
	p.Get(hot)
	p.Unpin(hot)
	for i := 1; i < 16; i++ {
		p.Get(start + pager.PageID(i))
		p.Unpin(start + pager.PageID(i))
		// Re-touch the hot page so its refbit stays set.
		p.Get(hot)
		p.Unpin(hot)
	}
	if !p.Resident(hot) {
		t.Error("hot page evicted despite constant touches")
	}
}

func TestConcurrentAccess(t *testing.T) {
	p, _, start := newPoolT(t, 8, 32)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				id := start + pager.PageID(r.Intn(32))
				d, err := p.Get(id)
				if err != nil {
					done <- err
					return
				}
				_ = d[0]
				if err := p.Unpin(id); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Errorf("accounting mismatch: %+v", s)
	}
}

// TestDropExtentForgetsFreedPages checks that a dropped extent's frames and
// ghost entries are gone (the next read sees the rewritten page), and that
// a frame pinned at drop time stops serving hits and leaves at its last
// unpin.
func TestDropExtentForgetsFreedPages(t *testing.T) {
	p, f, start := newPoolT(t, 8, 4)
	for i := 0; i < 3; i++ {
		data, release, err := p.LeasePage(start + pager.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			release()
		} else {
			defer func() {
				release()
				if p.Resident(start + 2) {
					t.Error("stale frame outlived its last unpin")
				}
			}()
			if data[0] != 2 {
				t.Fatalf("page 2 read %d", data[0])
			}
		}
	}
	p.shardOf(start+3).noteScanPage(start+3, []byte{3}) // ghost entry
	p.DropExtent(start, 4)
	for i := 0; i < 4; i++ {
		if err := f.WritePage(start+pager.PageID(i), []byte{byte(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if p.Resident(start) || p.Resident(start+1) {
		t.Error("unpinned frames survived DropExtent")
	}
	if p.shardOf(start + 3).ghostIdx[start+3] {
		t.Error("ghost entry survived DropExtent")
	}
	for i := 0; i < 3; i++ {
		data, release, err := p.LeasePage(start + pager.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(100+i) {
			t.Errorf("page %d served stale byte %d after DropExtent", i, data[0])
		}
		release()
	}
}
