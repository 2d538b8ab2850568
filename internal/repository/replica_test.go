package repository

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
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
// grows, each promotion is a journal record, and the epochs and fences
// survive a reopen and a compaction folding the records into the
// checkpoint.
func TestEpochFencing(t *testing.T) {
	dir := t.TempDir() + "/repo"
	r := replTestInit(t, dir)
	if got := r.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	if err := r.AdvanceEpoch(1); err != nil || r.Len() != 0 {
		t.Fatalf("no-op advance: %v, %d records", err, r.Len())
	}
	apply := func(pct string) {
		t.Helper()
		if _, err := r.Apply(replTestProgram(t, pct)); err != nil {
			t.Fatal(err)
		}
	}
	apply("2")
	apply("3")
	if err := r.AdvanceEpoch(3); err != nil { // the record of seq 3
		t.Fatalf("AdvanceEpoch(3): %v", err)
	}
	if err := r.AdvanceEpoch(2); err == nil {
		t.Fatalf("epoch moved backwards")
	}
	apply("5")
	if err := r.AdvanceEpoch(5); err != nil { // the record of seq 5
		t.Fatalf("AdvanceEpoch(5): %v", err)
	}
	if log := r.Log(); len(log) != 5 || log[2] != (Entry{Seq: 3, Epoch: 3}) || log[4] != (Entry{Seq: 5, Epoch: 5}) {
		t.Fatalf("journal %+v, want epoch records at seqs 3 and 5", log)
	}
	// The fence is the promotion point of the earliest epoch past the
	// asking one, the seq before its record.
	fences := func(r *Repository, when string, want1, want3 int) {
		t.Helper()
		if fence, ok := r.FenceSeq(1); !ok || fence != want1 {
			t.Errorf("%s: FenceSeq(1) = %d, %v; want %d", when, fence, ok, want1)
		}
		if fence, ok := r.FenceSeq(3); !ok || fence != want3 {
			t.Errorf("%s: FenceSeq(3) = %d, %v; want %d", when, fence, ok, want3)
		}
		if _, ok := r.FenceSeq(5); ok {
			t.Errorf("%s: FenceSeq(5) reported a fence; the asking epoch is current", when)
		}
	}
	fences(r, "the records", 2, 4)
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := reopened.Epoch(); got != 5 {
		t.Fatalf("epoch after reopen = %d, want 5", got)
	}
	fences(reopened, "reopened", 2, 4)
	// Folded into the checkpoint, both records fence at the seq before it.
	if err := reopened.Compact(); err != nil || reopened.SnapshotSeq() != 5 {
		t.Fatalf("Compact: %v, snapshot at %d", err, reopened.SnapshotSeq())
	}
	fences(reopened, "compacted", 4, 4)
	compacted, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := compacted.Epoch(); got != 5 {
		t.Fatalf("epoch of the compacted journal = %d, want 5", got)
	}
	fences(compacted, "compacted and reopened", 4, 4)
	// Epochs only grow: a snapshot of an older one does not replace the head.
	head, _ := compacted.Head()
	if err := compacted.ResetToSnapshot(storage.Snapshot{Base: head, Seq: 9, Epoch: 3}); err == nil || compacted.Epoch() != 5 {
		t.Errorf("ResetToSnapshot of an epoch-3 snapshot onto an epoch-5 head = %v, epoch %d", err, compacted.Epoch())
	}
}

// TestEpochRecordsRefused: an epoch record opens an epoch past the one in
// force and carries nothing else. One that does not grow the epoch, or
// that carries a program, a digest or a constraint set besides, is
// ErrDiverged at its seq, in Open and in a follower's batch, and nothing
// is written.
func TestEpochRecordsRefused(t *testing.T) {
	src := `nonneg: E.sal -> S, S < 0.`
	digest := storage.Digest{1}
	for name, bad := range map[string]Entry{
		"the epoch in force": {Seq: 2, Epoch: 3},
		"an older epoch":     {Seq: 2, Epoch: 2},
		"a program":          {Seq: 2, Epoch: 4, Program: `ins[x].a -> b.`},
		"a digest":           {Seq: 2, Epoch: 4, Digest: &digest},
		"a constraint set":   {Seq: 2, Epoch: 4, Constraints: &src},
	} {
		t.Run(name, func(t *testing.T) {
			refused := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "entry 2 opens epoch") {
					t.Fatalf("%s = %v, want ErrDiverged naming entry 2", what, err)
				}
			}
			unchanged := func(path string, want []byte) {
				t.Helper()
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: %d bytes after the refusal, were %d (%v)", path, len(got), len(want), err)
				}
			}
			r := replTestInit(t, t.TempDir()+"/repo")
			if err := r.AdvanceEpoch(3); err != nil {
				t.Fatal(err)
			}
			opened := r.Log()
			r.Close()
			path := filepath.Join(r.Dir(), journalFile)
			journal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tampered := bad.AppendRecord(slices.Clip(journal))
			if err := os.WriteFile(path, tampered, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(r.Dir())
			refused("Open", err)
			unchanged(path, tampered)

			f := replTestInit(t, t.TempDir()+"/follower")
			fpath := filepath.Join(f.Dir(), journalFile)
			before, err := os.ReadFile(fpath)
			if err != nil {
				t.Fatal(err)
			}
			refused("ApplyReplicaBatch", f.ApplyReplicaBatch(append(slices.Clip(opened), bad)))
			unchanged(fpath, before)
			if _, seq := f.Snapshot(); seq != 0 || f.Epoch() != 1 {
				t.Errorf("the refused batch moved the follower to seq %d, epoch %d", seq, f.Epoch())
			}
		})
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
