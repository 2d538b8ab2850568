// Replication support: the repository-side primitives journal shipping is
// built from. A base is a deterministic function of its snapshot plus the
// ordered journal (the paper's T_P is pure), so a follower that appends
// the primary's records through ApplyReplicaBatch — the same diff-replay
// code recovery uses — holds a base provably equal to the primary's at the
// same seq. internal/replication wires these primitives to HTTP.
package repository

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"verlog/internal/fsio"
	"verlog/internal/objectbase"
)

// InitAt creates a repository at dir whose snapshot is base stamped with
// journal seq — the bootstrap path for a replication follower that starts
// from a primary's snapshot transfer rather than from seq 0. Init is
// InitAt with seq 0.
func InitAt(dir string, base *objectbase.Base, seq int) (*Repository, error) {
	return InitAtFS(dir, base, seq, fsio.OS)
}

// InitAtFS is InitAt on an explicit filesystem (fault injection in tests).
func InitAtFS(dir string, base *objectbase.Base, seq int, fs fsio.FS) (*Repository, error) {
	if seq < 0 {
		return nil, fmt.Errorf("repository: negative snapshot seq %d", seq)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	if _, err := fs.Stat(filepath.Join(dir, snapshotFile)); err == nil {
		return nil, fmt.Errorf("repository: %s already contains a repository", dir)
	}
	r := newRepository(dir, fs)
	if err := r.removeStaleTemps(nil); err != nil {
		return nil, err
	}
	if err := r.writeBase(snapshotFile, base, seq); err != nil {
		return nil, err
	}
	jf, err := fs.Create(filepath.Join(dir, journalFile))
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	if err := jf.Sync(); err != nil {
		jf.Close()
		return nil, fmt.Errorf("repository: %w", err)
	}
	if err := jf.Close(); err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	frozen := base.Clone().Freeze()
	hs := &headState{snap: frozen, base: frozen, seq: seq, snapSeq: seq}
	r.spec = hs
	r.publish(hs)
	return r, nil
}

// EntriesAfter returns the resident journal entries with seq > after, the
// published head seq, and whether the request can be served: ok is false
// when after precedes the snapshot, i.e. the records were compacted away
// and the caller needs a snapshot transfer. Wait-free, no disk I/O; the
// returned slice is shared and must not be mutated.
func (r *Repository) EntriesAfter(after int) (entries []Entry, headSeq int, ok bool) {
	hs := r.published.Load()
	if after < hs.snapSeq {
		return nil, hs.seq, false
	}
	if after >= hs.seq {
		return nil, hs.seq, true
	}
	return hs.entries[after-hs.snapSeq:], hs.seq, true
}

// WaitPublished blocks until the published head seq exceeds after (then
// returns nil) or ctx ends (then returns ctx's error). It is the long-poll
// primitive of the replication stream: zero records are never busy-waited.
func (r *Repository) WaitPublished(ctx context.Context, after int) error {
	for {
		if r.published.Load().seq > after {
			return nil
		}
		r.notifyMu.Lock()
		ch := r.notifyCh
		r.notifyMu.Unlock()
		// Re-check after arming: a publish between the first check and the
		// channel grab closed the previous channel, not this one.
		if r.published.Load().seq > after {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// ErrReplicaSeqGap reports a replicated entry that does not extend the
// follower's journal contiguously — the stream must resume from the
// follower's last durable seq.
var ErrReplicaSeqGap = errors.New("repository: replicated entry does not extend the journal contiguously")

// ApplyReplicaBatch appends already-evaluated journal entries received
// from a replication stream: each record is CRC-framed and fsynced into
// the journal exactly as a local commit would be (one write+fsync for the
// whole batch — followers group-commit too), its diff replayed onto the
// head, and the new state published for the same wait-free reads a
// primary serves. Entries at or below the published seq are skipped
// (idempotent re-delivery); an entry beyond published+1 fails with
// ErrReplicaSeqGap and nothing is written. Idempotency keys ride along,
// so a client retry after a failover is still answered as a replay.
func (r *Repository) ApplyReplicaBatch(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	if err := r.repairDiskLocked(); err != nil {
		return err
	}
	r.flushPendingLocked()
	hs := r.published.Load()
	var buf []byte
	newEntries := hs.entries
	seq := hs.seq
	applied := 0
	for _, e := range entries {
		if e.Seq <= seq {
			continue // already durable here
		}
		if e.Seq != seq+1 {
			return fmt.Errorf("%w: got seq %d, journal is at %d", ErrReplicaSeqGap, e.Seq, seq)
		}
		buf = e.AppendRecord(buf)
		newEntries = append(newEntries, e)
		seq = e.Seq
		applied++
	}
	if applied == 0 {
		return nil
	}
	fresh := newEntries[len(newEntries)-applied:]
	prev, err := replayDerived(hs.base, fresh[:applied-1])
	if err != nil {
		return err
	}
	base, err := replayDerived(prev, fresh[applied-1:])
	if err != nil {
		return err
	}
	if err := r.appendJournal(buf); err != nil {
		r.commitMu.Lock()
		r.needRepair = true
		r.commitMu.Unlock()
		return err
	}
	ns := &headState{snap: hs.snap, base: base, prev: prev, seq: seq, snapSeq: hs.snapSeq, entries: newEntries}
	r.commitMu.Lock()
	r.spec = ns
	for _, e := range entries {
		if e.Key != "" {
			r.keys[e.Key] = &keyRecord{entry: slimEntry(e)}
		}
	}
	r.commitMu.Unlock()
	r.publish(ns)
	m := r.met()
	m.ReplicaApplies.Add(int64(applied))
	m.Applies.Add(int64(applied))
	return nil
}

// ResetToSnapshot replaces the repository's contents with base at journal
// seq: the journal is emptied, base becomes both snapshot and head, and
// every idempotency key is forgotten. It is the follower's catch-up path
// when the primary has compacted past the follower's position. The
// journal is truncated before the snapshot is replaced, so a crash
// between the two leaves a consistent (merely stale) repository that the
// next bootstrap attempt overwrites.
func (r *Repository) ResetToSnapshot(base *objectbase.Base, seq int) error {
	if seq < 0 {
		return fmt.Errorf("repository: negative snapshot seq %d", seq)
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	r.flushPendingLocked()
	if err := r.fs.Truncate(filepath.Join(r.dir, journalFile), 0); err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	if err := r.writeBase(snapshotFile, base, seq); err != nil {
		return err
	}
	frozen := base.Clone().Freeze()
	ns := &headState{snap: frozen, base: frozen, seq: seq, snapSeq: seq}
	r.commitMu.Lock()
	r.spec = ns
	r.keys = make(map[string]*keyRecord)
	r.needRepair = false
	r.commitMu.Unlock()
	r.publish(ns)
	return nil
}

// Epoch returns the replication epoch this repository last accepted (1
// for a repository that has never seen a promotion). The epoch fences
// journal streams: a promoted follower advances it, and records offered
// under an older epoch — a deposed primary's — are rejected.
func (r *Repository) Epoch() uint64 {
	return r.epoch.Load()
}

// EpochMark records one epoch adoption: the epoch and the journal seq the
// repository's head was at when it adopted it. For a promoted follower the
// seq is the promotion point — every record beyond it belongs to the new
// epoch's history, so the marks are what lets a primary tell a rejoining
// node whether its journal suffix predates a promotion (see FenceSeq).
type EpochMark struct {
	Epoch uint64
	Seq   int
}

// AdvanceEpoch durably raises the repository's epoch to e, recording that
// it was adopted at journal seq atSeq. Advancing to the current epoch is
// a no-op; moving backwards is an error — epochs only grow, which is what
// makes them a fence. The adoption history is persisted alongside the
// epoch (one line per adoption) and survives reopen.
func (r *Repository) AdvanceEpoch(e uint64, atSeq int) error {
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	cur := r.epoch.Load()
	if e == cur {
		return nil
	}
	if e < cur {
		return fmt.Errorf("repository: epoch may not move backwards (%d -> %d)", cur, e)
	}
	r.epochMu.Lock()
	hist := append(append([]EpochMark(nil), r.epochHist...), EpochMark{Epoch: e, Seq: atSeq})
	r.epochMu.Unlock()
	var buf strings.Builder
	for _, m := range hist {
		fmt.Fprintf(&buf, "%d %d\n", m.Epoch, m.Seq)
	}
	if err := r.writeFileDurable(epochFile, []byte(buf.String())); err != nil {
		return err
	}
	r.epochMu.Lock()
	r.epochHist = hist
	r.epochMu.Unlock()
	r.epoch.Store(e)
	return nil
}

// FenceSeq returns the earliest journal seq at which an epoch newer than
// since was adopted here — the promotion point a follower still on epoch
// since must not have written past. ok is false when no such adoption is
// recorded (the requester's epoch is current). A follower whose head
// exceeds the fence holds a journal suffix written under a deposed
// primary; its suffix may diverge from this node's history and it must
// re-bootstrap from a snapshot rather than graft the stream on.
func (r *Repository) FenceSeq(since uint64) (fence int, ok bool) {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	for _, m := range r.epochHist {
		if m.Epoch > since && (!ok || m.Seq < fence) {
			fence, ok = m.Seq, true
		}
	}
	return fence, ok
}

// loadEpoch reads the persisted epoch and its adoption history (epoch 1
// with no history when the file is absent, as in every repository that
// predates replication). Each line is "<epoch> <seq>"; a bare "<epoch>"
// line (the format before adoption seqs existed) is read as adopted at
// seq 0, the conservative fence.
func (r *Repository) loadEpoch() (uint64, []EpochMark, error) {
	data, err := r.fs.ReadFile(filepath.Join(r.dir, epochFile))
	if errors.Is(err, os.ErrNotExist) {
		return 1, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("repository: %w", err)
	}
	epoch := uint64(1)
	var hist []EpochMark
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		e, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil || e == 0 || e < epoch || len(fields) > 2 {
			return 0, nil, fmt.Errorf("repository: corrupt epoch file line %q", line)
		}
		seq := 0
		if len(fields) == 2 {
			if seq, err = strconv.Atoi(fields[1]); err != nil || seq < 0 {
				return 0, nil, fmt.Errorf("repository: corrupt epoch file line %q", line)
			}
		}
		epoch = e
		hist = append(hist, EpochMark{Epoch: e, Seq: seq})
	}
	return epoch, hist, nil
}
