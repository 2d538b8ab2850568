package repository

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"

	"verlog/internal/fsio"
	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/term"
)

// faultFS is fsio.Fault with survivable failures: the armed durable
// operations fail with err, and the process goes on — a disk that refused
// an operation, not a machine that died. Operations are counted from 1 over
// every Create, Append, Write, Sync, Rename, Remove, Truncate and SyncDir,
// and kinds names each one passed. A failing Write lands land(len) of its
// bytes first (half unless set), a failing Sync leaves its bytes in the
// file but not durable, and the others do nothing. Since the Fault
// underneath tracks what is durable, a crash afterwards (crash) still
// drops every byte no fsync made durable.
type faultFS struct {
	*fsio.Fault
	mu    sync.Mutex
	ops   int
	kinds []string
	armed map[int]error
	land  func(n int) int
}

func newFaultFS() *faultFS {
	return &faultFS{Fault: fsio.NewFault(), armed: map[int]error{}, land: func(n int) int { return n / 2 }}
}

// arm fails the operations next[i] places after the last one passed.
func (f *faultFS) arm(err error, next ...int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range next {
		f.armed[f.ops+k] = err
	}
}

// pass passes one operation of the given kind and returns the error it is
// armed with.
func (f *faultFS) pass(kind string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	f.kinds = append(f.kinds, kind)
	return f.armed[f.ops]
}

// crash cuts the power: every byte no fsync made durable is lost, and the
// filesystem is dead from then on.
func (f *faultFS) crash(t *testing.T) {
	f.Fault.FailAt(1, false)
	if err := f.Fault.SyncDir(t.TempDir()); !errors.Is(err, fsio.ErrInjected) {
		t.Fatalf("crash: %v", err)
	}
}

func (f *faultFS) Create(name string) (fsio.File, error) {
	if err := f.pass("Create"); err != nil {
		return nil, err
	}
	file, err := f.Fault.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{file, f}, nil
}

func (f *faultFS) Append(name string) (fsio.File, error) {
	if err := f.pass("Append"); err != nil {
		return nil, err
	}
	file, err := f.Fault.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{file, f}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.pass("Rename"); err != nil {
		return err
	}
	return f.Fault.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if err := f.pass("Remove"); err != nil {
		return err
	}
	return f.Fault.Remove(name)
}

func (f *faultFS) Truncate(name string, size int64) error {
	if err := f.pass("Truncate"); err != nil {
		return err
	}
	return f.Fault.Truncate(name, size)
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.pass("SyncDir"); err != nil {
		return err
	}
	return f.Fault.SyncDir(dir)
}

type faultFile struct {
	fsio.File
	fs *faultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	if err := w.fs.pass("Write"); err != nil {
		n, _ := w.File.Write(p[:w.fs.land(len(p))])
		return n, err
	}
	return w.File.Write(p)
}

func (w *faultFile) Sync() error {
	if err := w.fs.pass("Sync"); err != nil {
		return err
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

func faultRepo(t *testing.T) (*Repository, *faultFS) {
	t.Helper()
	initial, err := parser.ObjectBase(`henry.isa -> empl / sal -> 1000.`, "init.vlg")
	if err != nil {
		t.Fatal(err)
	}
	fs := newFaultFS()
	r, err := InitFS(t.TempDir()+"/repo", initial, fs)
	if err != nil {
		t.Fatal(err)
	}
	return r, fs
}

// The operations of an apply's journal append, counted from the apply's
// start: Append, Write, Sync. The cut after a failure comes next.
const (
	appendWrite = 2
	appendSync  = 3
)

var (
	timesTwo   = `x2: mod[henry].sal -> (S, S2) <- henry.sal -> S, S2 = S * 2.`
	timesThree = `x3: mod[henry].sal -> (S, S2) <- henry.sal -> S, S2 = S * 3.`
)

// A write the disk refused never becomes history: when the fsync of an
// append fails after the record's bytes reached the file, the apply fails,
// and neither the next apply's repair nor a reopen reads the record back.
func TestFailedJournalSyncIsNotCommitted(t *testing.T) {
	r, fs := faultRepo(t)
	fs.arm(syscall.EIO, appendSync)
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
	if n := r2.Len(); n != 1 {
		t.Errorf("the reopened journal holds %d entries, want 1", n)
	}
}

// ENOSPC on a write fails only its own batch: the half-written record is
// cut away and the next apply commits.
func TestJournalWriteENOSPCFailsOnlyItsBatch(t *testing.T) {
	r, fs := faultRepo(t)
	fs.arm(syscall.ENOSPC, appendWrite)
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
	fs.arm(syscall.EIO, appendSync, appendSync+1)
	if _, err := r.Apply(prog(t, timesTwo)); !errors.Is(err, ErrJournalUnwritable) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("apply ×2 with a failing fsync and truncate: %v, want ErrJournalUnwritable wrapping EIO", err)
	}
	if _, err := r.Apply(prog(t, timesThree)); !errors.Is(err, ErrJournalUnwritable) {
		t.Fatalf("apply ×3 after it: %v, want ErrJournalUnwritable", err)
	}
	if err := r.Compact(); !errors.Is(err, ErrJournalUnwritable) {
		t.Fatalf("compact after it: %v, want ErrJournalUnwritable", err)
	}
	if err := r.Verify(); !errors.Is(err, ErrJournalUnwritable) {
		t.Fatalf("verify, which reads the journal from disk, after it: %v, want ErrJournalUnwritable", err)
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

// sweepCap is the constraint set the survivable sweep installs; no apply of
// the workload violates it.
const sweepCap = `cap: E.isa -> empl, E.sal -> S, S > 100000.`

// acked records which calls of the survivable workload returned nil.
type acked struct {
	applies       int
	cons, epoched bool
}

// runSurvivableWorkload runs TestCrashSweep's workload on fs, going on past
// every error, with a SetConstraints before its compact and an AdvanceEpoch
// at its end. It returns the repository, nil when Init failed, what was
// acknowledged, and the states acknowledged, which every call is held to as
// soon as it returns (ackedStates.check).
func runSurvivableWorkload(t *testing.T, dir string, fs fsio.FS, progs []*term.Program) (*Repository, acked, *ackedStates) {
	t.Helper()
	var a acked
	states := &ackedStates{heads: map[int]string{}, records: map[int][]byte{}}
	initial, err := parser.ObjectBase(crashBase, "init.vlg")
	if err != nil {
		t.Fatal(err)
	}
	r, err := InitFS(dir, initial, fs)
	if err != nil {
		return nil, a, states
	}
	step := func(call string, err error) bool {
		if err == nil {
			states.ack(r)
		}
		states.check(t, "after "+call, r)
		return err == nil
	}
	step("Init", nil)
	for i, p := range progs {
		if i == compactAfter {
			a.cons = step("SetConstraints", r.SetConstraints(sweepCap))
			step("Compact", r.Compact())
		}
		if _, err := r.Apply(p); step(fmt.Sprintf("apply %d", i+1), err) {
			a.applies++
		}
	}
	a.epoched = step("AdvanceEpoch", r.AdvanceEpoch(2))
	return r, a, states
}

// ackedStates is what the survivable workload saw acknowledged: the head
// at every acknowledged seq, the journal record of every acknowledged
// entry, and the constraint set in force.
type ackedStates struct {
	heads   map[int]string
	records map[int][]byte
	cons    string
	newest  int
}

// ack records r's newest state, which a call has just acknowledged.
func (h *ackedStates) ack(r *Repository) {
	base, _ := r.Head()
	h.newest = r.SnapshotSeq() + r.Len()
	h.heads[h.newest] = parser.FormatFacts(base, true)
	if log := r.Log(); len(log) > 0 && log[len(log)-1].Seq == h.newest {
		h.records[h.newest] = log[len(log)-1].AppendRecord(nil)
	}
	h.cons = fmt.Sprint(r.Constraints())
}

// check holds r to every acknowledged state: Head is the newest, every
// acknowledged seq the journal still holds reads back through At as it
// was, Log holds exactly the acknowledged records after the snapshot, and
// Constraints is the acknowledged set.
func (h *ackedStates) check(t *testing.T, when string, r *Repository) {
	t.Helper()
	snap := r.SnapshotSeq()
	if base, _ := r.Head(); snap+r.Len() != h.newest || parser.FormatFacts(base, true) != h.heads[h.newest] {
		t.Errorf("%s: the head is seq %d, %q; the newest acknowledged is seq %d, %q",
			when, snap+r.Len(), parser.FormatFacts(base, true), h.newest, h.heads[h.newest])
		return
	}
	for seq, want := range h.heads {
		if seq < snap {
			continue // compacted into the checkpoint
		}
		if base, err := r.At(seq - snap); err != nil || parser.FormatFacts(base, true) != want {
			t.Errorf("%s: At(%d - %d) = %v, %v; acknowledged %q", when, seq, snap, base, err, want)
		}
	}
	log := r.Log()
	kept := 0
	for seq := range h.records {
		if seq > snap {
			kept++
		}
	}
	for _, e := range log {
		if want, ok := h.records[e.Seq]; !ok || !bytes.Equal(e.AppendRecord(nil), want) {
			t.Errorf("%s: Log has entry %d as %q; acknowledged %q", when, e.Seq, e.AppendRecord(nil), want)
		}
	}
	if len(log) != kept {
		t.Errorf("%s: Log holds %d entries after the snapshot at %d, %d were acknowledged", when, len(log), snap, kept)
	}
	if got := fmt.Sprint(r.Constraints()); got != h.cons {
		t.Errorf("%s: constraints %s, acknowledged %s", when, got, h.cons)
	}
}

// checkAcked holds r to the invariants of a survivable failure: every
// acknowledged call is in effect, and no call that returned an error is.
func checkAcked(t *testing.T, when string, r *Repository, a acked) {
	t.Helper()
	if got, want := henrySal(t, r), fmt.Sprint(100+10*a.applies); got != want {
		t.Errorf("%s: henry.sal = %s, want %s (%d applies acknowledged)", when, got, want, a.applies)
	}
	if n := len(r.Constraints()); (n == 1) != a.cons {
		t.Errorf("%s: %d constraints in force, SetConstraints acknowledged = %v", when, n, a.cons)
	}
	if e := r.Epoch(); (e == 2) != a.epoched {
		t.Errorf("%s: epoch %d, AdvanceEpoch(2) acknowledged = %v", when, e, a.epoched)
	}
}

// records returns the framed records of entries.
func records(entries []Entry) []byte {
	var buf []byte
	for _, e := range entries {
		buf = e.AppendRecord(buf)
	}
	return buf
}

// checkAsReopened holds r to a copy of its directory opened afresh: what r
// publishes, after a failed call too, is what a reopen without a crash
// reads — the same snapshot seq and the same log.
func checkAsReopened(t *testing.T, when string, r *Repository) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(r.Dir())); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: Open of a copy: %v", when, err)
	}
	if r.SnapshotSeq() != r2.SnapshotSeq() || r.Len() != r2.Len() || !bytes.Equal(records(r.Log()), records(r2.Log())) {
		t.Errorf("%s: snapshot seq %d and %d entries in memory, %d and %d reopened (logs equal: %v)", when,
			r.SnapshotSeq(), r.Len(), r2.SnapshotSeq(), r2.Len(), bytes.Equal(records(r.Log()), records(r2.Log())))
	}
}

// landings are how much of its buffer a failing Write lands before it
// returns the error.
var landings = []struct {
	name string
	n    func(len int) int
}{
	{"no byte", func(int) int { return 0 }},
	{"one byte", func(n int) int { return min(n, 1) }},
	{"half", func(n int) int { return n / 2 }},
	{"all but one byte", func(n int) int { return max(n-1, 0) }},
	{"every byte", func(n int) int { return n }},
}

// TestSurvivableFaultSweep fails each durable operation of the workload in
// turn, once with EIO and once with ENOSPC, survivably, then cuts the power
// and reopens; a failing Write lands none, one, half, all but one or all of
// its bytes. No call that returned an error is in effect, before the crash
// or after the reopen, and every acknowledged one is. After every call, and
// after the reopen, every acknowledged state reads back by its seq as it
// was (Head, At, Log, Constraints). A failed fsync is never retried, and
// nothing it wrote counts as committed. Before the crash, what the
// repository publishes is what a reopen of its directory reads: a failed
// Compact may or may not have compacted, but memory and disk agree.
func TestSurvivableFaultSweep(t *testing.T) {
	progs := crashPrograms(t)
	probe := newFaultFS()
	if _, a, _ := runSurvivableWorkload(t, t.TempDir()+"/probe", probe, progs); a != (acked{len(progs), true, true}) {
		t.Fatalf("fault-free workload acknowledged %+v", a)
	}
	t.Logf("sweeping %d fault points", probe.ops)
	runs := 0
	for i, kind := range probe.kinds {
		ls := landings[2:3] // only a Write lands bytes
		if kind == "Write" {
			ls = landings
		}
		for _, errno := range []error{syscall.EIO, syscall.ENOSPC} {
			for _, land := range ls {
				point := fmt.Sprintf("point %d (%s, %v, %s)", i+1, kind, errno, land.name)
				dir := t.TempDir() + "/repo"
				fs := newFaultFS()
				fs.land = land.n
				fs.arm(errno, i+1)
				runs++
				r, a, states := runSurvivableWorkload(t, dir, fs, progs)
				if r == nil {
					continue // Init failed: there is no repository to hold to anything
				}
				checkAcked(t, point+", before the crash", r, a)
				checkAsReopened(t, point+", before the crash", r)
				fs.crash(t)
				r, err := Open(dir)
				if err != nil {
					t.Fatalf("%s: Open after the crash: %v", point, err)
				}
				if err := r.Verify(); err != nil {
					t.Fatalf("%s: Verify: %v", point, err)
				}
				checkAcked(t, point+", after the crash", r, a)
				states.check(t, point+", after the crash", r)
			}
		}
	}
	t.Logf("%d runs", runs)
}

// TestFailedResetPublishesTheDisk: a ResetToSnapshot whose journal
// replacement fails at any of its operations returns the error, and what
// the repository publishes is then what a reopen reads: the old journal
// when the rename did not land, the new one when it did and only the
// directory sync failed.
func TestFailedResetPublishesTheDisk(t *testing.T) {
	for op := 1; op <= 5; op++ { // create, write, fsync, rename, directory sync
		r, fs := faultRepo(t)
		if _, err := r.Apply(prog(t, timesTwo)); err != nil {
			t.Fatal(err)
		}
		head, _ := r.Head()
		fs.arm(syscall.EIO, op)
		if err := r.ResetToSnapshot(storage.Snapshot{Base: head, Seq: 7}); !errors.Is(err, syscall.EIO) {
			t.Fatalf("operation %d: ResetToSnapshot = %v, want EIO", op, err)
		}
		checkAsReopened(t, fmt.Sprintf("operation %d failed", op), r)
	}
}
