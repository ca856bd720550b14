package main

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rodentstore/internal/vfs"
)

// File tags: the write-ahead log is the file whose name ends in ".wal",
// every other file the engine opens is the page file.
const (
	tagPage = iota
	tagWAL
	numTags
)

var tagNames = [numTags]string{"page", "wal"}

// ioCounts is one file tag's device traffic.
type ioCounts struct {
	Reads, ReadBytes, Writes, WriteBytes, Syncs, SyncNs int64
}

type atomicIO struct {
	reads, readBytes, writes, writeBytes, syncs, syncNs atomic.Int64
}

func (a *atomicIO) snapshot() ioCounts {
	return ioCounts{
		Reads: a.reads.Load(), ReadBytes: a.readBytes.Load(),
		Writes: a.writes.Load(), WriteBytes: a.writeBytes.Load(),
		Syncs: a.syncs.Load(), SyncNs: a.syncNs.Load(),
	}
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{
		Reads: c.Reads - o.Reads, ReadBytes: c.ReadBytes - o.ReadBytes,
		Writes: c.Writes - o.Writes, WriteBytes: c.WriteBytes - o.WriteBytes,
		Syncs: c.Syncs - o.Syncs, SyncNs: c.SyncNs - o.SyncNs,
	}
}

// countingFS wraps the operating system's file system at the engine's
// vfs seam (Options.FS). It counts every ReadAt, WriteAt and Sync per file
// tag and, while a tracer is attached, records each call as a span.
type countingFS struct {
	inner  vfs.FS
	counts [numTags]atomicIO
	tracer atomic.Pointer[tracer]

	mu    sync.Mutex
	files []*countingFile
}

func newCountingFS() *countingFS { return &countingFS{inner: vfs.OS} }

func (fs *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	tag := tagPage
	if strings.HasSuffix(name, ".wal") {
		tag = tagWAL
	}
	cf := &countingFile{File: f, fs: fs, tag: tag}
	fs.mu.Lock()
	fs.files = append(fs.files, cf)
	fs.mu.Unlock()
	return cf, nil
}

func (fs *countingFS) Remove(name string) error { return fs.inner.Remove(name) }

func (fs *countingFS) snapshot() [numTags]ioCounts {
	var out [numTags]ioCounts
	for i := range out {
		out[i] = fs.counts[i].snapshot()
	}
	return out
}

// abandon closes every file the engine opened underneath it, the way a
// process that dies leaves them: no final checkpoint, no WAL truncation.
// Later calls through the abandoned handles fail with os.ErrClosed.
func (fs *countingFS) abandon() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		_ = f.File.Close() // a handle the engine already closed reports ErrClosed; either way it is gone
	}
	fs.files = nil
}

type countingFile struct {
	vfs.File
	fs  *countingFS
	tag int
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	tr := f.fs.tracer.Load()
	start := tr.now()
	n, err := f.File.ReadAt(p, off)
	c := &f.fs.counts[f.tag]
	c.reads.Add(1)
	c.readBytes.Add(int64(n))
	tr.ioSpan(spanReadAt, f.tag, start)
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	tr := f.fs.tracer.Load()
	start := tr.now()
	n, err := f.File.WriteAt(p, off)
	c := &f.fs.counts[f.tag]
	c.writes.Add(1)
	c.writeBytes.Add(int64(n))
	tr.ioSpan(spanWriteAt, f.tag, start)
	return n, err
}

func (f *countingFile) Sync() error {
	tr := f.fs.tracer.Load()
	start, t0 := tr.now(), time.Now()
	err := f.File.Sync()
	c := &f.fs.counts[f.tag]
	c.syncs.Add(1)
	c.syncNs.Add(int64(time.Since(t0)))
	tr.ioSpan(spanSync, f.tag, start)
	return err
}
