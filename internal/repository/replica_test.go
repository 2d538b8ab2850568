package repository

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/term"
)

// replTestProgram parses the one-shot raise program used throughout.
func replTestProgram(t *testing.T, pct string) *term.Program {
	t.Helper()
	p, err := parser.Program(
		`raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * `+pct+`.`, "raise.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func replTestInit(t *testing.T, dir string) *Repository {
	t.Helper()
	initial, err := parser.ObjectBase(`henry.isa -> empl / sal -> 1000.`, "init.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Init(dir, initial)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	return r
}

// TestApplyReplicaBatch replays a primary's journal entries on a follower
// and checks the follower's head equals the primary's — the deterministic
// replay property replication rests on — and that the entries survive a
// follower reopen.
func TestApplyReplicaBatch(t *testing.T) {
	primary := replTestInit(t, t.TempDir()+"/primary")
	for _, pct := range []string{"1.1", "2", "1.5"} {
		if _, err := primary.Apply(replTestProgram(t, pct)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	entries, headSeq, ok := primary.EntriesAfter(0)
	if !ok || headSeq != 3 || len(entries) != 3 {
		t.Fatalf("EntriesAfter(0) = %d entries, head %d, ok %v", len(entries), headSeq, ok)
	}

	fdir := t.TempDir() + "/follower"
	follower := replTestInit(t, fdir)
	if err := follower.ApplyReplicaBatch(entries); err != nil {
		t.Fatalf("ApplyReplicaBatch: %v", err)
	}
	ph, _ := primary.Head()
	fh, _ := follower.Head()
	if !ph.Equal(fh) {
		t.Fatalf("follower head does not equal primary head after replay")
	}

	// Idempotent re-delivery: the same batch again is a no-op.
	if err := follower.ApplyReplicaBatch(entries); err != nil {
		t.Fatalf("re-delivery: %v", err)
	}
	if _, seq, _ := follower.EntriesAfter(0); seq != 3 {
		t.Fatalf("re-delivery advanced seq to %d", seq)
	}

	// A gap is rejected before anything is written.
	gap := Entry{Seq: 9, Program: "x."}
	if err := follower.ApplyReplicaBatch([]Entry{gap}); !errors.Is(err, ErrReplicaSeqGap) {
		t.Fatalf("gap error = %v, want ErrReplicaSeqGap", err)
	}

	// The replicated records are durable: reopen and verify.
	reopened, err := Open(fdir)
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	if err := reopened.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rh, _ := reopened.Head()
	if !rh.Equal(ph) {
		t.Fatalf("reopened follower head does not equal primary head")
	}
}

// TestReplicaBatchKeysSurvive checks that idempotency keys ride the
// replication stream: an apply committed under a key on the primary is
// answered as a replay on a promoted follower.
func TestReplicaBatchKeysSurvive(t *testing.T) {
	primary := replTestInit(t, t.TempDir()+"/primary")
	if _, _, replayed, err := primary.ApplyKey(replTestProgram(t, "1.1"), "req-1"); err != nil || replayed {
		t.Fatalf("ApplyKey: %v replayed=%v", err, replayed)
	}
	entries, _, _ := primary.EntriesAfter(0)

	follower := replTestInit(t, t.TempDir()+"/follower")
	if err := follower.ApplyReplicaBatch(entries); err != nil {
		t.Fatalf("ApplyReplicaBatch: %v", err)
	}
	// The same key on the follower (now promoted) must replay, not re-run.
	_, e, replayed, err := follower.ApplyKey(replTestProgram(t, "1.1"), "req-1")
	if err != nil {
		t.Fatalf("ApplyKey on follower: %v", err)
	}
	if !replayed || e.Seq != 1 {
		t.Fatalf("key did not survive replication: replayed=%v seq=%d", replayed, e.Seq)
	}
}

// TestEntriesAfterCompacted checks the snapshot-transfer signal: a resume
// point older than the snapshot cannot be served from the journal.
func TestEntriesAfterCompacted(t *testing.T) {
	r := replTestInit(t, t.TempDir()+"/repo")
	for _, pct := range []string{"1.1", "2"} {
		if _, err := r.Apply(replTestProgram(t, pct)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	if err := r.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, _, ok := r.EntriesAfter(0); ok {
		t.Fatalf("EntriesAfter(0) should be unservable after full compact")
	}
	if entries, seq, ok := r.EntriesAfter(2); !ok || seq != 2 || len(entries) != 0 {
		t.Fatalf("EntriesAfter(head) = %d entries, seq %d, ok %v", len(entries), seq, ok)
	}
}

// TestRetentionCompact checks the follower-ack floor: Compact folds only
// entries at or below the floor, the suffix stays replayable, and the
// partially compacted repository reopens cleanly.
func TestRetentionCompact(t *testing.T) {
	dir := t.TempDir() + "/repo"
	r := replTestInit(t, dir)
	for _, pct := range []string{"1.1", "2", "1.5", "1.25"} {
		if _, err := r.Apply(replTestProgram(t, pct)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	r.SetRetention(func() int { return 2 }) // a follower still needs seq 3+
	if err := r.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := r.SnapshotSeq(); got != 2 {
		t.Fatalf("snapshot seq = %d, want 2", got)
	}
	entries, headSeq, ok := r.EntriesAfter(2)
	if !ok || headSeq != 4 || len(entries) != 2 || entries[0].Seq != 3 {
		t.Fatalf("suffix not retained: %d entries, head %d, ok %v", len(entries), headSeq, ok)
	}
	if _, _, ok := r.EntriesAfter(1); ok {
		t.Fatalf("seq 2 was folded in; EntriesAfter(1) must demand a snapshot")
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify after partial compact: %v", err)
	}

	head, _ := r.Head()
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rh, _ := reopened.Head()
	if !rh.Equal(head) {
		t.Fatalf("reopened head differs after partial compact")
	}
	if got := reopened.SnapshotSeq(); got != 2 {
		t.Fatalf("reopened snapshot seq = %d, want 2", got)
	}

	// Dropping the retention hook restores the full compact.
	reopened.SetRetention(nil)
	if err := reopened.Compact(); err != nil {
		t.Fatalf("full Compact: %v", err)
	}
	if got := reopened.SnapshotSeq(); got != 4 {
		t.Fatalf("snapshot seq after full compact = %d, want 4", got)
	}
}

// TestWaitPublished checks the long-poll primitive: it returns
// immediately for an old seq, wakes on the next commit, and honors
// context cancellation.
func TestWaitPublished(t *testing.T) {
	r := replTestInit(t, t.TempDir()+"/repo")
	if _, err := r.Apply(replTestProgram(t, "1.1")); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := r.WaitPublished(context.Background(), 0); err != nil {
		t.Fatalf("WaitPublished(0) on seq 1: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- r.WaitPublished(context.Background(), 1) }()
	time.Sleep(10 * time.Millisecond) // let the waiter arm
	if _, err := r.Apply(replTestProgram(t, "2")); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitPublished woke with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("WaitPublished did not wake on publish")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.WaitPublished(ctx, 100); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitPublished past head = %v, want deadline exceeded", err)
	}
}

// TestEpochFencing checks the promotion fence: epoch defaults to 1, only
// grows, and survives a reopen.
func TestEpochFencing(t *testing.T) {
	dir := t.TempDir() + "/repo"
	r := replTestInit(t, dir)
	if got := r.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	if err := r.AdvanceEpoch(1, 0); err != nil {
		t.Fatalf("no-op advance: %v", err)
	}
	if err := r.AdvanceEpoch(3, 7); err != nil {
		t.Fatalf("AdvanceEpoch(3): %v", err)
	}
	if err := r.AdvanceEpoch(2, 9); err == nil {
		t.Fatalf("epoch moved backwards")
	}
	if err := r.AdvanceEpoch(5, 11); err != nil {
		t.Fatalf("AdvanceEpoch(5): %v", err)
	}
	// The fence is the earliest adoption past the asking epoch.
	if fence, ok := r.FenceSeq(1); !ok || fence != 7 {
		t.Fatalf("FenceSeq(1) = %d, %v; want 7 (epoch 3's adoption)", fence, ok)
	}
	if fence, ok := r.FenceSeq(3); !ok || fence != 11 {
		t.Fatalf("FenceSeq(3) = %d, %v; want 11 (epoch 5's adoption)", fence, ok)
	}
	if _, ok := r.FenceSeq(5); ok {
		t.Fatalf("FenceSeq(5) reported a fence; the asking epoch is current")
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := reopened.Epoch(); got != 5 {
		t.Fatalf("epoch after reopen = %d, want 5", got)
	}
	// The adoption history survives reopen, so fences do too.
	if fence, ok := reopened.FenceSeq(1); !ok || fence != 7 {
		t.Fatalf("FenceSeq(1) after reopen = %d, %v; want 7", fence, ok)
	}
}

// TestEpochFileRefusesOtherLines: an epoch file holds "<epoch> <seq>"
// lines with growing epochs. A bare "<epoch>" line, an epoch lower than the
// one before it and a seq that is not a number each make Open fail, naming
// the line, and leave the file as it was; a valid history loads.
func TestEpochFileRefusesOtherLines(t *testing.T) {
	dir := t.TempDir() + "/repo"
	replTestInit(t, dir)
	path := filepath.Join(dir, epochFile)
	for _, bad := range []string{"3\n", "2 0\n4\n", "3 7\n2 9\n", "3 seven\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt epoch file line") {
			t.Errorf("epoch file %q: Open = %v, want a corrupt epoch file line", bad, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != bad {
			t.Errorf("epoch file %q reads %q after the refused Open (%v)", bad, got, err)
		}
	}
	if err := os.WriteFile(path, []byte("3 7\n5 11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("a valid epoch file: %v", err)
	}
	if fence, ok := r.FenceSeq(3); r.Epoch() != 5 || !ok || fence != 11 {
		t.Errorf("epoch %d, FenceSeq(3) = %d, %v; want 5, 11, true", r.Epoch(), fence, ok)
	}
}

// TestEpochFileTornLine: an adoption is a line appended to the epoch file,
// so a crash may leave the last one without its newline. That line was
// never acknowledged: Open does not read it, and the next adoption cuts it
// away before appending its own.
func TestEpochFileTornLine(t *testing.T) {
	dir := t.TempDir() + "/repo"
	replTestInit(t, dir)
	path := filepath.Join(dir, epochFile)
	if err := os.WriteFile(path, []byte("3 7\n5 1"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 3 {
		t.Fatalf("Open with a torn last line: epoch %d, want 3", r.Epoch())
	}
	if err := r.AdvanceEpoch(5, 11); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "3 7\n5 11\n" {
		t.Errorf("epoch file %q (%v), want the torn line replaced", got, err)
	}
}

// TestInitAtAndReset checks the snapshot-bootstrap path: a follower
// initialized from a primary snapshot at seq N continues the stream from
// N, and ResetToSnapshot re-bases an existing follower the same way.
func TestInitAtAndReset(t *testing.T) {
	primary := replTestInit(t, t.TempDir()+"/primary")
	for _, pct := range []string{"1.1", "2", "1.5"} {
		if _, err := primary.Apply(replTestProgram(t, pct)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	snap, snapSeq := primary.Snapshot()
	if snapSeq != 3 {
		t.Fatalf("primary snapshot seq = %d, want head seq 3", snapSeq)
	}
	ph, _ := primary.Head()
	if !snap.Equal(ph) {
		t.Fatalf("Snapshot base differs from head")
	}

	// Bootstrap a follower directly from the primary's head at seq 3.
	fdir := t.TempDir() + "/follower"
	follower, err := InitAt(fdir, storage.Snapshot{Base: ph.Clone(), Seq: 3})
	if err != nil {
		t.Fatalf("InitAt: %v", err)
	}
	if _, seq, ok := follower.EntriesAfter(3); !ok || seq != 3 {
		t.Fatalf("bootstrapped follower at seq %d, ok %v", seq, ok)
	}
	if _, err := primary.Apply(replTestProgram(t, "1.2")); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	entries, _, ok := primary.EntriesAfter(3)
	if !ok || len(entries) != 1 {
		t.Fatalf("EntriesAfter(3): %d entries, ok %v", len(entries), ok)
	}
	if err := follower.ApplyReplicaBatch(entries); err != nil {
		t.Fatalf("ApplyReplicaBatch after bootstrap: %v", err)
	}
	ph, _ = primary.Head()
	fh, _ := follower.Head()
	if !ph.Equal(fh) {
		t.Fatalf("bootstrapped follower diverged from primary")
	}
	if reopened, err := Open(fdir); err != nil {
		t.Fatalf("reopen bootstrapped follower: %v", err)
	} else if err := reopened.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	// Reset a stale follower (fresh at seq 0) onto the primary's state.
	stale := replTestInit(t, t.TempDir()+"/stale")
	if err := stale.ResetToSnapshot(storage.Snapshot{Base: ph.Clone(), Seq: 4}); err != nil {
		t.Fatalf("ResetToSnapshot: %v", err)
	}
	sh, _ := stale.Head()
	if !sh.Equal(ph) {
		t.Fatalf("reset follower head differs from primary")
	}
	if _, seq, ok := stale.EntriesAfter(4); !ok || seq != 4 {
		t.Fatalf("reset follower seq = %d, ok %v", seq, ok)
	}
	if err := stale.Verify(); err != nil {
		t.Fatalf("Verify after reset: %v", err)
	}
}
