package main

import (
	"io"
	gofs "io/fs"
	"sync"
	"sync/atomic"
	"time"

	"verlog/internal/fsio"
)

// fsCounts is the work a countingFS has passed through since it was made.
type fsCounts struct {
	Syncs      int64 // File.Sync + SyncDir + Truncate (which syncs)
	Renames    int64
	Creates    int64 // Create + Append
	Writes     int64
	WriteBytes int64
	SyncTime   time.Duration
	WriteTime  time.Duration
	// OtherTime is the time in every remaining operation (open, close,
	// rename, remove, stat, read).
	OtherTime time.Duration
}

// Time is the total time spent below the fsio boundary.
func (c fsCounts) Time() time.Duration { return c.SyncTime + c.WriteTime + c.OtherTime }

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{
		Syncs: c.Syncs - o.Syncs, Renames: c.Renames - o.Renames, Creates: c.Creates - o.Creates,
		Writes: c.Writes - o.Writes, WriteBytes: c.WriteBytes - o.WriteBytes,
		SyncTime: c.SyncTime - o.SyncTime, WriteTime: c.WriteTime - o.WriteTime, OtherTime: c.OtherTime - o.OtherTime,
	}
}

// countingFS wraps an fsio.FS and counts and times what the repository
// asks of it: the fsio layer measured at its own boundary. With a
// recorder, syncs, renames and truncates also become spans under the
// apply that is in flight (see tracedHandler.current); the hundreds of
// buffered writes behind one head.bin are counted and timed, not traced.
type countingFS struct {
	next    fsio.FS
	rec     *recorder
	current *atomic.Int64 // parent span for file operations; nil or -1 for none

	mu sync.Mutex
	c  fsCounts
}

func (f *countingFS) counts() fsCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c
}

func (f *countingFS) parent() int {
	if f.current == nil {
		return -1
	}
	return int(f.current.Load())
}

// observe times fn, optionally as a span, and books the time with add.
func (f *countingFS) observe(spanName string, add func(c *fsCounts, d time.Duration), fn func()) {
	id := -1
	if spanName != "" {
		id = f.rec.begin(spanName, f.parent(), -1, 0)
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	f.rec.end(id)
	f.mu.Lock()
	add(&f.c, d)
	f.mu.Unlock()
}

func other(c *fsCounts, d time.Duration) { c.OtherTime += d }

func (f *countingFS) Create(name string) (file fsio.File, err error) {
	f.observe("", func(c *fsCounts, d time.Duration) { c.Creates++; c.OtherTime += d }, func() { file, err = f.next.Create(name) })
	if err != nil {
		return nil, err
	}
	return &countingFile{next: file, fs: f}, nil
}

func (f *countingFS) Append(name string) (file fsio.File, err error) {
	f.observe("", func(c *fsCounts, d time.Duration) { c.Creates++; c.OtherTime += d }, func() { file, err = f.next.Append(name) })
	if err != nil {
		return nil, err
	}
	return &countingFile{next: file, fs: f}, nil
}

func (f *countingFS) Open(name string) (rc io.ReadCloser, err error) {
	f.observe("", other, func() { rc, err = f.next.Open(name) })
	return rc, err
}

func (f *countingFS) ReadFile(name string) (b []byte, err error) {
	f.observe("", other, func() { b, err = f.next.ReadFile(name) })
	return b, err
}

func (f *countingFS) Stat(name string) (fi gofs.FileInfo, err error) {
	f.observe("", other, func() { fi, err = f.next.Stat(name) })
	return fi, err
}

func (f *countingFS) ReadDir(dir string) (names []string, err error) {
	f.observe("", other, func() { names, err = f.next.ReadDir(dir) })
	return names, err
}

func (f *countingFS) Rename(oldpath, newpath string) (err error) {
	f.observe("fsio.rename", func(c *fsCounts, d time.Duration) { c.Renames++; c.OtherTime += d }, func() { err = f.next.Rename(oldpath, newpath) })
	return err
}

func (f *countingFS) Remove(name string) (err error) {
	f.observe("", other, func() { err = f.next.Remove(name) })
	return err
}

func (f *countingFS) Truncate(name string, size int64) (err error) {
	f.observe("fsio.truncate", func(c *fsCounts, d time.Duration) { c.Syncs++; c.SyncTime += d }, func() { err = f.next.Truncate(name, size) })
	return err
}

func (f *countingFS) SyncDir(dir string) (err error) {
	f.observe("fsio.syncdir", func(c *fsCounts, d time.Duration) { c.Syncs++; c.SyncTime += d }, func() { err = f.next.SyncDir(dir) })
	return err
}

// countingFile counts one handle's writes and syncs into its filesystem.
type countingFile struct {
	next fsio.File
	fs   *countingFS
}

func (cf *countingFile) Write(p []byte) (n int, err error) {
	cf.fs.observe("", func(c *fsCounts, d time.Duration) { c.Writes++; c.WriteBytes += int64(n); c.WriteTime += d }, func() { n, err = cf.next.Write(p) })
	return n, err
}

func (cf *countingFile) Sync() (err error) {
	cf.fs.observe("fsio.sync", func(c *fsCounts, d time.Duration) { c.Syncs++; c.SyncTime += d }, func() { err = cf.next.Sync() })
	return err
}

func (cf *countingFile) Close() (err error) {
	cf.fs.observe("", other, func() { err = cf.next.Close() })
	return err
}
