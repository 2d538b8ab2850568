package repository

import (
	"errors"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"verlog/internal/fsio"
	"verlog/internal/parser"
)

// journalFaultFS is the real filesystem with failures armed for the next
// journal append — its Write lands half its bytes and fails, or its Sync
// fails after every byte was written — and, while truncErr is set, for
// every Truncate. Nothing else fails, and the process goes on: a disk that
// refused one operation, not a machine that died (fsio.Fault).
type journalFaultFS struct {
	fsio.FS
	mu                          sync.Mutex
	writeErr, syncErr, truncErr error
}

func (f *journalFaultFS) Append(name string) (fsio.File, error) {
	file, err := f.FS.Append(name)
	if err != nil || filepath.Base(name) != journalFile {
		return file, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	armed := &faultyAppend{File: file, writeErr: f.writeErr, syncErr: f.syncErr}
	f.writeErr, f.syncErr = nil, nil
	return armed, nil
}

func (f *journalFaultFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	err := f.truncErr
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.FS.Truncate(name, size)
}

func (f *journalFaultFS) arm(writeErr, syncErr, truncErr error) {
	f.mu.Lock()
	f.writeErr, f.syncErr, f.truncErr = writeErr, syncErr, truncErr
	f.mu.Unlock()
}

type faultyAppend struct {
	fsio.File
	writeErr, syncErr error
}

func (w *faultyAppend) Write(p []byte) (int, error) {
	if w.writeErr != nil {
		n, _ := w.File.Write(p[:len(p)/2])
		return n, w.writeErr
	}
	return w.File.Write(p)
}

func (w *faultyAppend) Sync() error {
	if w.syncErr != nil {
		return w.syncErr
	}
	return w.File.Sync()
}

// henrySal reads henry's salary off r's head.
func henrySal(t *testing.T, r *Repository) string {
	t.Helper()
	body, err := parser.Query(`henry.sal -> S.`, "q")
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := r.QueryRows(body)
	if err != nil || len(rows) != 1 {
		t.Fatalf("henry.sal: %v, %v", rows, err)
	}
	return rows[0][0].String()
}

func faultRepo(t *testing.T) (*Repository, *journalFaultFS) {
	t.Helper()
	initial, err := parser.ObjectBase(`henry.isa -> empl / sal -> 1000.`, "init.vlg")
	if err != nil {
		t.Fatal(err)
	}
	fs := &journalFaultFS{FS: fsio.OS}
	r, err := InitFS(t.TempDir()+"/repo", initial, fs)
	if err != nil {
		t.Fatal(err)
	}
	return r, fs
}

var (
	timesTwo   = `x2: mod[henry].sal -> (S, S2) <- henry.sal -> S, S2 = S * 2.`
	timesThree = `x3: mod[henry].sal -> (S, S2) <- henry.sal -> S, S2 = S * 3.`
)

// A write the disk refused never becomes history: when the fsync of an
// append fails after the record's bytes reached the file, the apply fails,
// and neither the next apply's repair nor a reopen reads the record back.
func TestFailedJournalSyncIsNotCommitted(t *testing.T) {
	r, fs := faultRepo(t)
	fs.arm(nil, syscall.EIO, nil)
	if _, err := r.Apply(prog(t, timesTwo)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("apply ×2 with a failing fsync: %v, want EIO", err)
	}
	if _, err := r.Apply(prog(t, timesThree)); err != nil {
		t.Fatalf("apply ×3: %v", err)
	}
	if got := henrySal(t, r); got != "3000" {
		t.Errorf("henry.sal after the failed ×2 and ×3 = %s, want 3000", got)
	}
	r2, err := Open(r.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := henrySal(t, r2); got != "3000" {
		t.Errorf("henry.sal after a reopen = %s, want 3000", got)
	}
	if n, err := r2.Len(); err != nil || n != 1 {
		t.Errorf("the reopened journal holds %d entries (%v), want 1", n, err)
	}
}

// ENOSPC on a write fails only its own batch: the half-written record is
// cut away and the next apply commits.
func TestJournalWriteENOSPCFailsOnlyItsBatch(t *testing.T) {
	r, fs := faultRepo(t)
	fs.arm(syscall.ENOSPC, nil, nil)
	if _, err := r.Apply(prog(t, timesTwo)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("apply ×2 on a full disk: %v, want ENOSPC", err)
	}
	if _, err := r.Apply(prog(t, timesThree)); err != nil {
		t.Fatalf("apply ×3 once there is space: %v", err)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(r.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := henrySal(t, r2); got != "3000" || !r2.Recovery().Clean() {
		t.Errorf("after a reopen: henry.sal = %s, recovery %s; want 3000, clean", got, r2.Recovery())
	}
}

// When the failed append cannot be cut away either, the repository keeps
// serving reads and refuses every write with ErrJournalUnwritable — no
// recovery reads the uncommitted bytes — until it is reopened.
func TestUnrecoverableAppendTurnsUnwritable(t *testing.T) {
	r, fs := faultRepo(t)
	fs.arm(nil, syscall.EIO, syscall.EIO)
	if _, err := r.Apply(prog(t, timesTwo)); !errors.Is(err, ErrJournalUnwritable) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("apply ×2 with a failing fsync and truncate: %v, want ErrJournalUnwritable wrapping EIO", err)
	}
	fs.arm(nil, nil, nil)
	if _, err := r.Apply(prog(t, timesThree)); !errors.Is(err, ErrJournalUnwritable) {
		t.Fatalf("apply ×3 after it: %v, want ErrJournalUnwritable", err)
	}
	if err := r.Compact(); !errors.Is(err, ErrJournalUnwritable) {
		t.Fatalf("compact after it: %v, want ErrJournalUnwritable", err)
	}
	if _, err := r.Entries(); !errors.Is(err, ErrJournalUnwritable) {
		t.Fatalf("the journal read from disk after it: %v, want ErrJournalUnwritable", err)
	}
	if got := henrySal(t, r); got != "1000" {
		t.Errorf("henry.sal read from the unwritable repository = %s, want 1000", got)
	}
	r2, err := Open(r.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Apply(prog(t, timesThree)); err != nil {
		t.Fatalf("apply on the reopened repository: %v", err)
	}
}
