// Replication support: the repository-side primitives journal shipping is
// built from. A base is a deterministic function of its snapshot plus the
// ordered journal (the paper's T_P is pure), so a follower that appends
// the primary's records through ApplyReplicaBatch — evaluating each one as
// recovery does, and checking the state it derives against the digest the
// primary recorded — holds the primary's base at the same seq, or refuses
// the record. internal/replication wires these primitives to HTTP.
package repository

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

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
	return &headState{snap: frozen, base: frozen, seq: snap.Seq, snapSeq: snap.Seq, cons: cons, snapCons: cons,
		digest: digest, snapDigest: digest}, nil
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
// as it did on the primary. Entries at or below the published seq are
// skipped (idempotent re-delivery); an entry beyond published+1 fails with
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
	r.flushPendingLocked() // a flush that failed is repaired before anything is appended
	if err := r.repairDiskLocked(); err != nil {
		return err
	}
	hs := r.published.Load()
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
	ns, err := r.advance(hs, fresh, false, r.met())
	r.baseGen++ // whatever the outcome: the no-op records made meanwhile end here
	if err != nil {
		return err
	}
	var buf []byte
	for _, e := range ns.entries[len(hs.entries):] {
		buf = e.AppendRecord(buf)
	}
	if err := r.appendJournal(buf); err != nil {
		return err
	}
	r.commitMu.Lock()
	r.spec = ns
	for _, e := range fresh {
		if e.Key != "" {
			r.keys[e.Key] = &keyRecord{entry: slimEntry(e)}
		}
	}
	r.commitMu.Unlock()
	r.publish(ns)
	applied := len(fresh)
	m := r.met()
	m.ReplicaApplies.Add(int64(applied))
	m.Applies.Add(int64(applied))
	return nil
}

// ResetToSnapshot replaces the repository's contents with snap: the
// journal becomes snap alone, its base both checkpoint and head, its
// constraint set the one in force, and every idempotency key is
// forgotten. It is the follower's catch-up path when the primary has
// compacted past the follower's position. The journal is replaced with one
// rename, so a crash leaves the old repository or the new one; after a
// failure the published head is what the disk holds.
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
// makes them a fence. The adoption history is the epoch file, one line
// appended per adoption, and survives reopen. An append that fails is cut
// away (appendDurable), and the epoch and history in memory are always
// what the file reads back: a failed adoption is in effect neither before
// nor after a reopen.
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
	size, err := r.loadEpoch()
	switch {
	case err != nil:
	case size < 0:
		size, err = 0, r.writeDurable(epochFile, nil)
	default: // cut away a line a crash left short
		err = r.fs.Truncate(filepath.Join(r.dir, epochFile), size)
	}
	if err == nil {
		_, err = r.appendDurable(epochFile, &size, fmt.Appendf(nil, "%d %d\n", e, atSeq), &zeroMetrics)
	}
	if _, lerr := r.loadEpoch(); lerr != nil {
		return errors.Join(err, lerr)
	}
	return err
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

// loadEpoch makes the epoch and its adoption history what the epoch file
// reads back (epoch 1 and no history when there is no file, as in every
// repository that never saw a promotion), and returns the length of the
// file's complete lines, -1 when there is no file. Each line is
// "<epoch> <seq>", epochs growing; a last line without its newline is an
// append a crash cut short and is not read. Any other line makes the file
// corrupt.
func (r *Repository) loadEpoch() (int64, error) {
	data, err := r.fs.ReadFile(filepath.Join(r.dir, epochFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("repository: %w", err)
	}
	size := int64(bytes.LastIndexByte(data, '\n') + 1)
	if err != nil {
		size = -1
	}
	epoch := uint64(1)
	var hist []EpochMark
	for _, line := range strings.Split(string(data[:max(size, 0)]), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var m EpochMark
		var extra string
		if n, _ := fmt.Sscan(line, &m.Epoch, &m.Seq, &extra); n != 2 || m.Epoch < epoch || m.Seq < 0 {
			return 0, fmt.Errorf("repository: corrupt epoch file line %q", line)
		}
		epoch = m.Epoch
		hist = append(hist, m)
	}
	r.epochMu.Lock()
	r.epochHist = hist
	r.epochMu.Unlock()
	r.epoch.Store(epoch)
	return size, nil
}
