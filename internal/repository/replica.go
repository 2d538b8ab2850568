// Replication support: the repository-side primitives journal shipping is
// built from. A base is a deterministic function of its snapshot plus the
// ordered journal (the paper's T_P is pure), so a follower that appends
// the primary's records through ApplyReplicaBatch — evaluating each one as
// recovery does, and checking the state it derives against the digest the
// primary recorded — holds the primary's base at the same seq, or refuses
// the record. internal/replication wires these primitives to HTTP.
package repository

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"verlog/internal/fsio"
	"verlog/internal/objectbase"
	"verlog/internal/storage"
)

// InitAt creates a repository at dir whose journal is snap alone, as its
// checkpoint: its base at journal seq snap.Seq, under its constraint set —
// the bootstrap path for a replication follower that starts from a
// primary's snapshot transfer rather than from seq 0. Init is InitAt with
// seq 0 and no constraints.
func InitAt(dir string, snap storage.Snapshot) (*Repository, error) {
	return InitAtFS(dir, snap, fsio.OS)
}

// InitAtFS is InitAt on an explicit filesystem (fault injection in tests).
func InitAtFS(dir string, snap storage.Snapshot, fs fsio.FS) (*Repository, error) {
	hs, err := snapHead(snap, snap.Base.Clone().Freeze())
	if err != nil {
		return nil, err
	}
	snap.Digest = hs.digest
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	if _, err := fs.Stat(filepath.Join(dir, journalFile)); err == nil {
		return nil, fmt.Errorf("repository: %s already contains a repository", dir)
	}
	r := newRepository(dir, fs)
	if err := r.removeStaleTemps(nil); err != nil {
		return nil, err
	}
	if err := r.writeLog(snap, nil); err != nil {
		return nil, err
	}
	r.spec = hs
	r.publish(hs)
	return r, nil
}

// snapHead returns the head state of a repository that is snap alone, with
// frozen, a frozen base no one else may change, as snap's base. A snapshot
// without a digest has its digest computed.
func snapHead(snap storage.Snapshot, frozen *objectbase.Base) (*headState, error) {
	if snap.Seq < 0 {
		return nil, fmt.Errorf("repository: negative snapshot seq %d", snap.Seq)
	}
	cons, err := parseCons(snap.Constraints, "snapshot")
	if err != nil {
		return nil, err
	}
	digest := snap.Digest
	if digest == (storage.Digest{}) {
		digest = storage.BaseDigest(frozen)
	}
	epoch := max(snap.Epoch, 1)
	return &headState{snap: frozen, base: frozen, seq: snap.Seq, snapSeq: snap.Seq, cons: cons, snapCons: cons,
		epoch: epoch, snapEpoch: epoch, digest: digest, snapDigest: digest}, nil
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

// ApplyReplicaBatch appends journal entries received from a replication
// stream: each record's program is evaluated on the state before it, as
// recovery evaluates it (plan cache and no-op proof included), the state it
// derives is checked against the digest, fired count and strata the
// primary recorded, and the records are CRC-framed and fsynced into the
// journal exactly as a local commit would write them (one write+fsync for
// the whole batch — followers group-commit too), then the new state is
// published for the same wait-free reads a primary serves. A record its
// program does not reproduce fails the batch with ErrDiverged, naming its
// seq, and nothing is written. A constraints record installs its set here
// as it did on the primary, an epoch record opens its epoch. Entries at or
// below the published seq are skipped (idempotent re-delivery); an entry
// beyond published+1 fails with ErrReplicaSeqGap and nothing is written.
// Idempotency keys ride along, so a client retry after a failover is still
// answered as a replay. After Close it fails with ErrClosed.
func (r *Repository) ApplyReplicaBatch(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	return r.quiesced(func(hs *headState) error {
		seq := hs.seq
		var fresh []Entry
		for _, e := range entries {
			if e.Seq <= seq {
				continue // already durable here
			}
			if e.Seq != seq+1 {
				return fmt.Errorf("%w: got seq %d, journal is at %d", ErrReplicaSeqGap, e.Seq, seq)
			}
			fresh = append(fresh, e)
			seq = e.Seq
		}
		if len(fresh) == 0 {
			return nil
		}
		err := r.commitLocked(hs, fresh)
		r.baseGen++ // whatever the outcome: the no-op records made meanwhile end here
		if err != nil {
			return err
		}
		m := r.met()
		m.ReplicaApplies.Add(int64(len(fresh)))
		m.Applies.Add(int64(len(fresh)))
		return nil
	})
}

// ResetToSnapshot replaces the repository's contents with snap: the
// journal becomes snap alone, its base both checkpoint and head, its
// constraint set and epoch the ones in force, and every idempotency key is
// forgotten. It is the follower's catch-up path when the primary has
// compacted past the follower's position. A snapshot of an epoch older
// than the head's is refused: epochs only grow. The journal is replaced
// with one rename, so a crash leaves the old repository or the new one;
// after a failure the published head is what the disk holds.
func (r *Repository) ResetToSnapshot(snap storage.Snapshot) error {
	ns, err := snapHead(snap, snap.Base.Clone().Freeze())
	if err != nil {
		return err
	}
	snap.Digest = ns.digest
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	if err := r.unwritableErr(); err != nil {
		return err
	}
	if head := r.published.Load().epoch; ns.epoch < head {
		return fmt.Errorf("repository: the snapshot is of epoch %d, the head of epoch %d: epochs only grow", ns.epoch, head)
	}
	r.flushPendingLocked()
	r.baseGen++
	if err := r.writeLog(snap, nil); err != nil {
		return r.reread(err)
	}
	r.commitMu.Lock()
	r.spec = ns
	r.keys = make(map[string]*keyRecord)
	r.needRepair = false
	r.commitMu.Unlock()
	r.publish(ns)
	return nil
}

// Epoch returns the replication epoch in force at the published head: the
// epoch of the last epoch record, or of the checkpoint when no record
// follows it (1 in a repository that never saw a promotion). The epoch
// fences journal streams: a promoted follower opens a new one, and records
// offered under an older epoch, a deposed primary's, are refused.
func (r *Repository) Epoch() uint64 {
	return r.published.Load().epoch
}

// AdvanceEpoch opens epoch e: it appends an epoch record, the next seq with
// no program, digest or constraints, as SetConstraints appends its record,
// and the epoch is in force from it on. Its followers stream the record
// like any other, so a promotion is written once, by the promoted node, and
// every journal of the epoch holds it byte for byte. Advancing to the
// current epoch writes nothing; moving backwards is an error — epochs only
// grow, which is what makes them a fence.
func (r *Repository) AdvanceEpoch(e uint64) error {
	return r.quiesced(func(hs *headState) error {
		switch {
		case e == hs.epoch:
			return nil
		case e < hs.epoch:
			return fmt.Errorf("repository: epoch may not move backwards (%d -> %d)", hs.epoch, e)
		}
		return r.commitLocked(hs, []Entry{{Seq: hs.seq + 1, Epoch: e}})
	})
}

// FenceSeq returns the promotion point of the earliest epoch newer than
// since: the seq before that epoch's record, the last one a follower still
// on epoch since may share with this node. ok is false when no such epoch
// is in force (the requester's epoch is current). A follower whose head
// exceeds the fence holds a journal suffix written under a deposed
// primary; its suffix may diverge from this node's history and it must
// re-bootstrap from a snapshot rather than graft the stream on. When the
// record was folded into the checkpoint the fence is the seq before it:
// a follower at the checkpoint's seq or past it re-bootstraps, and one
// behind it has to anyway.
func (r *Repository) FenceSeq(since uint64) (fence int, ok bool) {
	hs := r.published.Load()
	if hs.snapEpoch > since {
		return hs.snapSeq - 1, true
	}
	for _, e := range hs.entries {
		if e.Epoch > since {
			return e.Seq - 1, true
		}
	}
	return 0, false
}
