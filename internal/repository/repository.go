// Package repository manages an object base on disk together with the log
// of update-programs applied to it. It implements the long-term-evolution
// side of versioning that Section 1 of the paper calls complementary to
// the per-update versions: each applied program is one evolution step, and
// any past state can be reconstructed by replaying the journal.
//
// Layout of a repository directory:
//
//	snapshot.bin  — the object base the journal starts from
//	journal.jsonl — one checksummed record per applied program, with its diff
//
// Durability contract: an update is applied exactly when its journal
// record has been written and fsynced. The current base exists in memory
// only: it is "snapshot + journal replay" by definition, Open rebuilds it
// that way, and a commit writes nothing but its journal record, so there
// is no second copy on disk that a crash could leave out of step. Journal
// records carry a CRC32 checksum; a torn final record (the signature of
// power loss mid-append) is truncated away on Open, while corruption
// anywhere else is reported, never repaired silently. All file writes go
// through internal/fsio, whose fault injection drives the crash sweep in
// crash_test.go.
//
// # Concurrency model
//
// The current state lives in memory as an immutable (frozen) object base
// behind an atomic pointer, published only after its journal record is
// durable. Reads (Head, At, Replay, Initial, Log, Len, Constraints, ...)
// work on one wait-free load of that pointer: zero disk I/O, never blocked
// by an in-flight apply, at most one committed update behind it.
//
// Writes are serial — an update-program is a function from one base to the
// next and the journal is the sequence of those steps — and run in two
// halves. Under applyMu, one apply at a time evaluates against the
// speculative head, checks the constraints, encodes its journal record,
// extends the speculative head and joins the pending group-commit batch;
// no evaluation is ever discarded. Its product is a delta: the new head
// shares every state the program did not change with the old one
// (objectbase.Derive), and the record is computed from the changed states
// alone. With applyMu released, the first writer into a batch leads it:
// under diskMu it writes every queued record in one write+fsync, publishes
// the new head and wakes the batch, while the others wait on the batch. So
// apply k+1 evaluates while batch k's fsync is in flight, and under
// contention one fsync commits many updates.
//
// Three locks, taken in the order applyMu -> diskMu -> commitMu: applyMu
// serializes evaluate-and-enqueue, diskMu file operations and the advance
// of the published head, commitMu the in-memory commit state for a few
// pointer swaps at a time. An operation that needs the repository
// quiescent (SetConstraints, Compact, Verify, Close, ApplyReplicaBatch,
// ResetToSnapshot, repair) holds applyMu and diskMu and flushes the
// pending batch: nothing is evaluating, nothing is in flight. The one
// re-run is fault handling: an apply that finds a flush ahead of it failed
// repairs the repository from disk and evaluates again.
package repository

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/fsio"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/term"
)

const (
	snapshotFile    = "snapshot.bin"
	journalFile     = "journal.jsonl"
	constraintsFile = "constraints.vlg"
	epochFile       = "epoch"
	// legacyHeadFile is the head cache earlier versions rewrote after every
	// commit batch. Nothing reads it; Open removes a leftover one.
	legacyHeadFile = "head.bin"
)

// headState is one published state of the repository: the frozen object
// base after seq applied programs, together with the frozen snapshot base
// and the journal entries that connect them. States form a chain — each
// commit derives the next from the previous — and are immutable once
// built, so a reader holding one sees a perfectly consistent view no
// matter what commits land after its load.
type headState struct {
	snap *objectbase.Base // frozen snapshot base (state snapSeq)
	base *objectbase.Base // frozen current base (state seq)
	// prev is the frozen base of state seq-1, the one the last entry was
	// evaluated on, so that explaining the newest state replays nothing
	// (see Replay). It is a base, not the head state it came from: no chain
	// of old heads stays reachable. Nil when there is no entry, and after
	// recovery, which rebuilds the head without passing through it.
	prev    *objectbase.Base
	seq     int
	snapSeq int
	entries []Entry // journal entries snapSeq+1..seq, in order
}

// at returns the frozen base after the first n entries, sharing with the
// snapshot every state they leave alone; the caller has checked 0 <= n <=
// len(entries). The two newest states are resident, the others are replayed
// from the snapshot.
func (hs *headState) at(n int) (*objectbase.Base, error) {
	switch {
	case n == len(hs.entries):
		return hs.base, nil
	case n == len(hs.entries)-1 && hs.prev != nil:
		return hs.prev, nil
	}
	return replayDerived(hs.snap, hs.entries[:n])
}

// commitBatch is one group-commit batch: the framed journal records of
// every committer that joined it, flushed with a single write+fsync by
// its leader. done is closed once the batch's fate is decided; err is set
// before that when the flush failed.
type commitBatch struct {
	buf   []byte // framed records, in seq order
	count int
	keys  []string   // idempotency keys registered by this batch
	last  *headState // head state after the batch's final record
	done  chan struct{}
	err   error
}

// consState is the installed integrity-constraint set, kept resident so
// applies never re-read or re-parse the constraints file.
type consState struct {
	src string
	cs  []term.Constraint
}

// keyRecord is one idempotency-key cache entry. batch is the commit batch
// the key's update rides in, nil once the update is durable; a replay hit
// on a still-pending key waits for the batch so a replayed answer always
// refers to a durable update.
type keyRecord struct {
	entry Entry // diff stripped
	batch *commitBatch
}

// Repository is an object base under journal control. All methods are
// safe for concurrent use; see the package comment for the concurrency
// model. Lock order: applyMu -> diskMu -> commitMu.
type Repository struct {
	dir string
	fs  fsio.FS

	// published is the durable head: the state after the last fsynced
	// journal record. Readers load it wait-free.
	published atomic.Pointer[headState]
	// cons is the resident constraint set (never nil after init/open).
	cons atomic.Pointer[consState]
	// metricsP holds nil-safe instruments; see Instrument.
	metricsP atomic.Pointer[Metrics]
	// epoch is the replication generation this repository last accepted
	// (see AdvanceEpoch); persisted in epochFile, 1 when the file is absent.
	epoch atomic.Uint64
	// epochMu guards epochHist, the durable record of every epoch adoption
	// and the journal seq it happened at (see FenceSeq).
	epochMu   sync.Mutex
	epochHist []EpochMark

	// notifyMu guards notifyCh, which is closed and replaced on every
	// publish so WaitPublished can block for the next durable state.
	notifyMu sync.Mutex
	notifyCh chan struct{}

	// retention, when set, is consulted by Compact: it returns the lowest
	// journal seq that must stay replayable for replication followers, and
	// Compact folds only the entries below it into the snapshot.
	retentionMu sync.Mutex
	retention   func() int

	// applyMu makes evaluation serial: an apply holds it from reading spec
	// and cons until it has extended spec and joined the pending batch, and
	// releases it before the batch is flushed; whatever else replaces spec
	// or cons holds it throughout. It also guards the compiled-plan cache,
	// which only an evaluating apply touches: program hash → the plans the
	// last apply of that program compiled, tagged with the seq class of the
	// head they were planned against (see cachedPlans).
	applyMu   sync.Mutex
	planCache map[uint64]planEntry
	planOrder []uint64

	// commitMu guards the in-memory commit state: the speculative head
	// chain, the pending batch, the idempotency-key map, and the repair
	// flags. It is only ever held for pointer swaps and map updates —
	// never across evaluation or disk I/O.
	commitMu sync.Mutex
	// closed is set by Close: mutations and disk operations refuse from
	// then on, while reads keep serving the last published state.
	closed bool
	// spec is the speculative head: published plus any commits that are
	// queued in the pending batch but not yet durable. New evaluations
	// start from it so commit N+1 can evaluate while commit N fsyncs.
	spec    *headState
	keys    map[string]*keyRecord
	pending *commitBatch
	// needRepair is set when a flush failed after possibly touching disk;
	// the next write operation re-runs recovery before proceeding.
	needRepair bool
	recovery   Recovery

	// diskMu serializes every file operation: journal appends, snapshot
	// rewrites, truncation, recovery. The published head only advances
	// under it.
	diskMu sync.Mutex

	// replayMu guards lastReplay and makes replays serial (see Replay). It
	// is a leaf: nothing else is taken while it is held.
	replayMu   sync.Mutex
	lastReplay *replayed
}

// planEntry is one compiled-plan cache slot.
type planEntry struct {
	cp       *eval.CompiledProgram
	seqClass int
}

// Plan-cache sizing: plans are keyed by (program hash, head seq class).
// The seq class advances every 2^planSeqClassBits commits, bounding how
// stale the join-order statistics behind a reused plan can get — plans
// stay correct regardless (estimates only pick the order), so the class
// is a freshness knob, not a correctness one. planCacheSlots bounds
// residency; eviction is FIFO, which is enough for the expected shape
// (a handful of hot programs applied repeatedly).
const (
	planSeqClassBits = 6
	planCacheSlots   = 64
)

// cachedPlans returns the cached compiled plans for a program hash, or nil
// when absent or planned against an expired seq class.
func (r *Repository) cachedPlans(hash uint64, seqClass int) *eval.CompiledProgram {
	e, ok := r.planCache[hash]
	if !ok || e.seqClass != seqClass {
		return nil
	}
	return e.cp
}

// storePlans caches freshly compiled plans, evicting FIFO past the slot
// bound.
func (r *Repository) storePlans(hash uint64, seqClass int, cp *eval.CompiledProgram) {
	if r.planCache == nil {
		r.planCache = make(map[uint64]planEntry, planCacheSlots)
	}
	if _, ok := r.planCache[hash]; !ok {
		if len(r.planOrder) >= planCacheSlots {
			delete(r.planCache, r.planOrder[0])
			r.planOrder = r.planOrder[1:]
		}
		r.planOrder = append(r.planOrder, hash)
	}
	r.planCache[hash] = planEntry{cp: cp, seqClass: seqClass}
}

func newRepository(dir string, fs fsio.FS) *Repository {
	r := &Repository{dir: dir, fs: fs, keys: make(map[string]*keyRecord)}
	r.cons.Store(&consState{})
	r.epoch.Store(1)
	r.notifyCh = make(chan struct{})
	return r
}

// publish installs hs as the durable head and wakes every WaitPublished
// blocked on an older seq.
func (r *Repository) publish(hs *headState) {
	r.published.Store(hs)
	r.notifyMu.Lock()
	close(r.notifyCh)
	r.notifyCh = make(chan struct{})
	r.notifyMu.Unlock()
}

var zeroMetrics Metrics

// met returns the wired instruments, or all-nil (no-op) ones.
func (r *Repository) met() *Metrics {
	if m := r.metricsP.Load(); m != nil {
		return m
	}
	return &zeroMetrics
}

// Recovery summarizes what Open had to do to bring the repository to a
// consistent state.
type Recovery struct {
	// Entries is the journal length after recovery.
	Entries int
	// TornTail reports that an incomplete final journal record (a crash
	// mid-append) was truncated away; TruncatedBytes is how much was cut.
	TornTail       bool
	TruncatedBytes int64
	// ObsoleteDropped counts journal entries already folded into the
	// snapshot that were dropped — the tail end of an interrupted Compact.
	ObsoleteDropped int
	// StaleTemps counts leftover files removed: *.tmp files from crashed
	// writers, and the head.bin cache of a directory written by an earlier
	// version.
	StaleTemps int
	// Duration is how long the recovery pass took.
	Duration time.Duration
}

// Clean reports whether Open found nothing to repair.
func (rec Recovery) Clean() bool {
	return !rec.TornTail && rec.ObsoleteDropped == 0 && rec.StaleTemps == 0
}

// String renders the summary in one line, for server startup logs.
func (rec Recovery) String() string {
	if rec.Clean() {
		return fmt.Sprintf("clean (%d journal entries)", rec.Entries)
	}
	return fmt.Sprintf("recovered (%d journal entries, torn tail=%v cut %d bytes, obsolete entries dropped=%d, stale temps removed=%d)",
		rec.Entries, rec.TornTail, rec.TruncatedBytes, rec.ObsoleteDropped, rec.StaleTemps)
}

// Init creates a repository at dir holding the initial base.
func Init(dir string, initial *objectbase.Base) (*Repository, error) {
	return InitFS(dir, initial, fsio.OS)
}

// InitFS is Init on an explicit filesystem (fault injection in tests).
func InitFS(dir string, initial *objectbase.Base, fs fsio.FS) (*Repository, error) {
	return InitAtFS(dir, initial, 0, fs)
}

// Open opens an existing repository, recovering it to a consistent state:
// a torn final journal record is truncated away, entries an interrupted
// Compact already folded into the snapshot are dropped, stale temp files
// are removed, and the head is rebuilt by replaying the journal onto the
// snapshot. Recovery() reports what was done.
func Open(dir string) (*Repository, error) {
	return OpenFS(dir, fsio.OS)
}

// OpenFS is Open on an explicit filesystem (fault injection in tests).
func OpenFS(dir string, fs fsio.FS) (*Repository, error) {
	for _, f := range []string{snapshotFile, journalFile} {
		if _, err := fs.Stat(filepath.Join(dir, f)); err != nil {
			return nil, fmt.Errorf("repository: %s is not a repository (missing %s)", dir, f)
		}
	}
	r := newRepository(dir, fs)
	if err := r.recoverLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

// Dir returns the repository directory.
func (r *Repository) Dir() string { return r.dir }

// Recovery returns what the last Open (or in-flight repair) had to fix.
func (r *Repository) Recovery() Recovery {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	return r.recovery
}

// removeStaleTemps deletes leftover *.tmp files from crashed writers, and
// the head cache file a directory written by an earlier version carries.
func (r *Repository) removeStaleTemps(rec *Recovery) error {
	names, err := r.fs.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") || name == legacyHeadFile {
			if err := r.fs.Remove(filepath.Join(r.dir, name)); err != nil {
				return fmt.Errorf("repository: %w", err)
			}
			if rec != nil {
				rec.StaleTemps++
			}
		}
	}
	return nil
}

// recoverLocked reconciles snapshot and journal and rebuilds the in-memory
// published state from them. The caller must hold applyMu and diskMu (or
// the repository not yet shared). See Open for what it repairs.
func (r *Repository) recoverLocked() error {
	start := time.Now()
	var rec Recovery
	if err := r.removeStaleTemps(&rec); err != nil {
		return err
	}
	// The snapshot is ground truth; if it cannot be read nothing can.
	snapState, snapSeq, err := r.readBase(snapshotFile)
	if err != nil {
		return fmt.Errorf("repository: unreadable snapshot: %w", err)
	}
	jpath := filepath.Join(r.dir, journalFile)
	entries, _, jerr := r.readJournalRaw()
	if jerr != nil {
		var torn *storage.TornTailError
		if !errors.As(jerr, &torn) {
			return jerr
		}
		st, err := r.fs.Stat(jpath)
		if err != nil {
			return fmt.Errorf("repository: %w", err)
		}
		if err := r.fs.Truncate(jpath, torn.Offset); err != nil {
			return fmt.Errorf("repository: truncating torn journal tail: %w", err)
		}
		rec.TornTail, rec.TruncatedBytes = true, st.Size()-torn.Offset
	}
	// Entries at or below the snapshot's seq are the residue of a Compact
	// that crashed between rewriting the snapshot and trimming the
	// journal; finish the job. A full overlap is truncated away; a partial
	// one (a retention-preserving Compact that died mid-way) drops just the
	// obsolete prefix and keeps the live suffix. Contiguity of what remains
	// is still enforced below, so genuine corruption keeps being reported.
	live := entries
	for len(live) > 0 && live[0].Seq <= snapSeq {
		live = live[1:]
	}
	if dropped := len(entries) - len(live); dropped > 0 {
		if len(live) == 0 {
			if err := r.fs.Truncate(jpath, 0); err != nil {
				return fmt.Errorf("repository: dropping pre-snapshot journal entries: %w", err)
			}
		} else if err := r.rewriteJournal(live); err != nil {
			return fmt.Errorf("repository: dropping pre-snapshot journal prefix: %w", err)
		}
		rec.ObsoleteDropped = dropped
	}
	for i, e := range live {
		if e.Seq != snapSeq+1+i {
			return fmt.Errorf("repository: journal entry %d has seq %d, want %d; the repository is corrupted", i+1, e.Seq, snapSeq+1+i)
		}
	}
	// Replay the journal onto a copy of the snapshot: the head.
	state := snapState
	if len(live) > 0 {
		state = snapState.Clone()
	}
	if err := replay(state, live); err != nil {
		return err
	}
	cons, err := r.loadConstraints()
	if err != nil {
		return err
	}
	epoch, epochHist, err := r.loadEpoch()
	if err != nil {
		return err
	}
	keys := make(map[string]*keyRecord)
	for _, e := range live {
		if e.Key != "" {
			keys[e.Key] = &keyRecord{entry: slimEntry(e)}
		}
	}
	rec.Entries = len(live)
	rec.Duration = time.Since(start)
	hs := &headState{
		snap:    snapState.Freeze(),
		base:    state.Freeze(),
		seq:     snapSeq + len(live),
		snapSeq: snapSeq,
		entries: live,
	}
	r.commitMu.Lock()
	r.spec = hs
	r.keys = keys
	r.recovery = rec
	r.needRepair = false
	r.commitMu.Unlock()
	r.publish(hs)
	r.cons.Store(cons)
	r.epochMu.Lock()
	r.epochHist = epochHist
	r.epochMu.Unlock()
	r.epoch.Store(epoch)
	r.met().RecoverySeconds.SetDuration(rec.Duration)
	return nil
}

// rewriteJournal durably replaces the journal with the framed records of
// entries (tmp, fsync, rename, dir fsync). Used by the retention-preserving
// Compact and by recovery when only a prefix of the journal is obsolete.
func (r *Repository) rewriteJournal(entries []Entry) error {
	var buf []byte
	for _, e := range entries {
		buf = e.AppendRecord(buf)
	}
	return r.writeFileDurable(journalFile, buf)
}

// loadConstraints reads and parses the constraints file (empty set when
// absent).
func (r *Repository) loadConstraints() (*consState, error) {
	src, err := r.fs.ReadFile(filepath.Join(r.dir, constraintsFile))
	if errors.Is(err, os.ErrNotExist) {
		return &consState{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	cs, err := parser.Constraints(string(src), constraintsFile)
	if err != nil {
		return nil, err
	}
	return &consState{src: string(src), cs: cs}, nil
}

// repairDiskLocked re-runs recovery if a previous flush failed partway;
// the caller must hold applyMu and diskMu. It fails any queued commits
// first (needRepair is set, so the flush aborts them), leaving recovery
// nothing in flight to race with.
func (r *Repository) repairDiskLocked() error {
	r.commitMu.Lock()
	need := r.needRepair
	r.commitMu.Unlock()
	if !need {
		return nil
	}
	r.flushPendingLocked()
	return r.recoverLocked()
}

// writeDurable atomically replaces name with what write puts into it:
// unique temp file, write, fsync, close, rename, fsync the directory entry.
func (r *Repository) writeDurable(name string, write func(fsio.File) error) error {
	tmp := filepath.Join(r.dir, fmt.Sprintf("%s.%08x.tmp", name, rand.Uint32()))
	f, err := r.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		r.fs.Remove(tmp)
		return fmt.Errorf("repository: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		r.fs.Remove(tmp)
		return fmt.Errorf("repository: %w", err)
	}
	if err := f.Close(); err != nil {
		r.fs.Remove(tmp)
		return fmt.Errorf("repository: %w", err)
	}
	if err := r.fs.Rename(tmp, filepath.Join(r.dir, name)); err != nil {
		r.fs.Remove(tmp)
		return fmt.Errorf("repository: %w", err)
	}
	if err := r.fs.SyncDir(r.dir); err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	return nil
}

// writeBase durably replaces name with a snapshot of b stamped seq.
func (r *Repository) writeBase(name string, b *objectbase.Base, seq int) error {
	return r.writeDurable(name, func(f fsio.File) error { return storage.SaveBinaryAt(f, b, seq) })
}

// writeFileDurable durably replaces name with data.
func (r *Repository) writeFileDurable(name string, data []byte) error {
	return r.writeDurable(name, func(f fsio.File) error { _, err := f.Write(data); return err })
}

func (r *Repository) readBase(name string) (*objectbase.Base, int, error) {
	f, err := r.fs.Open(filepath.Join(r.dir, name))
	if err != nil {
		return nil, 0, fmt.Errorf("repository: %w", err)
	}
	defer f.Close()
	return storage.LoadBinaryAt(f)
}

// Head returns the current object base: a wait-free load of the published
// in-memory head, with zero disk I/O. The returned base is frozen and
// shared — Clone it before mutating. It reflects every durable update and
// may trail an in-flight apply by one seq (an update is published the
// moment its journal record is fsynced).
func (r *Repository) Head() (*objectbase.Base, error) {
	hs := r.published.Load()
	r.met().HeadCacheHits.Inc()
	return hs.base, nil
}

// Snapshot returns the published head base together with its seq, as one
// consistent wait-free load.
func (r *Repository) Snapshot() (*objectbase.Base, int) {
	hs := r.published.Load()
	r.met().HeadCacheHits.Inc()
	return hs.base, hs.seq
}

// Initial returns the object base the journal starts from (the snapshot).
// Like Head it is a wait-free load of resident state; the returned base
// is frozen and shared.
func (r *Repository) Initial() (*objectbase.Base, error) {
	hs := r.published.Load()
	r.met().HeadCacheHits.Inc()
	return hs.snap, nil
}

// readJournalRaw parses the journal file. The error may be a
// *storage.TornTailError (recoverable by truncation) or a hard one.
func (r *Repository) readJournalRaw() ([]Entry, int64, error) {
	f, err := r.fs.Open(filepath.Join(r.dir, journalFile))
	if err != nil {
		return nil, 0, fmt.Errorf("repository: %w", err)
	}
	defer f.Close()
	var out []Entry
	_, good, rerr := storage.ReadJournal(f, func(payload []byte) error {
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	if rerr != nil {
		return out, good, fmt.Errorf("repository: %w", rerr)
	}
	return out, good, nil
}

// Entries reads the full journal from disk — the integrity-checking read:
// unlike Log it surfaces a torn tail or checksum damage as an error
// rather than silently dropping records. It serializes with in-flight
// flushes; use Log for the wait-free view.
func (r *Repository) Entries() ([]Entry, error) {
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	if err := r.closedErr(); err != nil {
		return nil, err
	}
	entries, _, err := r.readJournalRaw()
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// Log returns the journal entries of the published head (those since the
// snapshot), wait-free and without disk I/O. The slice is shared and must
// not be mutated. It may trail an in-flight apply by one entry.
func (r *Repository) Log() []Entry {
	hs := r.published.Load()
	r.met().HeadCacheHits.Inc()
	return hs.entries
}

// HistoryBytes reports what the history since the snapshot occupies: the
// journal file on disk, and the resident entries' programs, keys and
// encoded diffs in memory. Both fall to zero on Compact, which is what
// they are for: they tell an operator when compacting is worth it.
func (r *Repository) HistoryBytes() (journal, resident int64) {
	if st, err := r.fs.Stat(filepath.Join(r.dir, journalFile)); err == nil {
		journal = st.Size()
	}
	for _, e := range r.published.Load().entries {
		resident += int64(e.size())
	}
	return journal, resident
}

// Len returns the number of applied programs since the snapshot.
func (r *Repository) Len() (int, error) {
	hs := r.published.Load()
	return hs.seq - hs.snapSeq, nil
}

// SnapshotSeq returns the journal sequence number the snapshot
// represents (0 for a never-compacted repository). State numbers in At
// count from it, so a journal entry e is state e.Seq-SnapshotSeq().
func (r *Repository) SnapshotSeq() int {
	return r.published.Load().snapSeq
}

// ConstraintViolationError reports an update whose result satisfies an
// integrity-constraint denial; the update was not committed.
type ConstraintViolationError struct {
	Constraint string
	Witnesses  []eval.Binding
}

func (e *ConstraintViolationError) Error() string {
	extra := ""
	if len(e.Witnesses) > 0 {
		extra = fmt.Sprintf(" (e.g. %s)", e.Witnesses[0])
	}
	return fmt.Sprintf("repository: update rejected: constraint %s violated by %d binding(s)%s",
		e.Constraint, len(e.Witnesses), extra)
}

// SetConstraints installs integrity constraints (denial form, concrete
// syntax; see parser.Constraints). Every subsequent Apply verifies the
// updated base against them and refuses to commit on violation. The
// current head must already satisfy them. Installation holds applyMu, so
// no update can slip between the validation and the switch: every apply
// evaluated under the previous set is durable (or has failed) before the
// head is validated, and every later one reads the new set.
func (r *Repository) SetConstraints(src string) error {
	cs, err := parser.Constraints(src, constraintsFile)
	if err != nil {
		return err
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	if err := r.closedErr(); err != nil {
		return err
	}
	if err := r.repairDiskLocked(); err != nil {
		return err
	}
	r.flushPendingLocked()
	head := r.published.Load().base
	if err := checkConstraints(head, cs); err != nil {
		return fmt.Errorf("repository: current head already violates constraints: %w", err)
	}
	if err := r.writeFileDurable(constraintsFile, []byte(src)); err != nil {
		return err
	}
	r.cons.Store(&consState{src: src, cs: cs})
	return nil
}

// Constraints returns the installed constraints (nil if none), from the
// resident set — wait-free, no disk I/O.
func (r *Repository) Constraints() ([]term.Constraint, error) {
	return r.cons.Load().cs, nil
}

func checkConstraints(base *objectbase.Base, cs []term.Constraint) error {
	for i, c := range cs {
		witnesses, err := eval.Query(base, c.Body)
		if err != nil {
			return fmt.Errorf("repository: constraint %s: %w", c.Label(i), err)
		}
		if len(witnesses) > 0 {
			return &ConstraintViolationError{Constraint: c.Label(i), Witnesses: witnesses}
		}
	}
	return nil
}

// slimEntry strips the diff, which the idempotency cache does not need.
func slimEntry(e Entry) Entry {
	e.Added, e.Removed = "", ""
	return e
}

// Apply evaluates p on the current head, verifies the installed integrity
// constraints against the result, appends the journal entry (fsynced) and
// advances the head to the updated object base. On a constraint violation
// nothing is committed. It returns the full evaluation result.
func (r *Repository) Apply(p *term.Program, opts ...core.Option) (*eval.Result, error) {
	res, _, _, err := r.ApplyKey(p, "", opts...)
	return res, err
}

// ApplyKey is Apply under an idempotency key. If key is non-empty and a
// journaled entry already carries it, nothing is re-evaluated: ApplyKey
// returns (nil, that entry with its diff stripped, true, nil). Otherwise
// the update is applied, journaled with the key, and returned with
// replayed=false. Keys are remembered as far back as the journal reaches;
// Compact clears them along with the entries that held them.
//
// Applies evaluate one at a time, each on the head the one before it left
// (tryApply), so an evaluation that passes its checks is the one that
// commits. The journal record is fsynced in a group-commit batch shared
// with concurrent committers while the next apply already evaluates;
// ApplyKey returns only after its record is durable.
func (r *Repository) ApplyKey(p *term.Program, key string, opts ...core.Option) (*eval.Result, Entry, bool, error) {
	start := time.Now()
	for {
		a, retry, err := r.tryApply(p, key, opts, start)
		if err != nil {
			return nil, Entry{}, false, err
		}
		if retry {
			continue
		}
		if a.res == nil {
			if a.batch != nil {
				<-a.batch.done
				if a.batch.err != nil {
					// The update the key rode in never became durable (its
					// key was dropped with the batch); apply afresh.
					continue
				}
			}
			r.met().ReplayHits.Inc()
			return nil, a.entry, true, nil
		}
		waitStart := time.Now()
		waitSpan := a.commitSpan.StartChild("wait")
		if a.leader {
			r.diskMu.Lock()
			r.flushPendingLocked()
			r.diskMu.Unlock()
		}
		<-a.batch.done
		waitSpan.End()
		a.commitSpan.End()
		a.res.Stats.CommitWait = time.Since(waitStart)
		a.res.Stats.Commit = a.res.Stats.Encode + a.res.Stats.CommitWait
		r.met().CommitWait.Observe(a.res.Stats.CommitWait)
		if a.batch.err != nil {
			return nil, Entry{}, false, a.batch.err
		}
		r.met().Applies.Inc()
		r.met().RecordBytes.ObserveSize(int64(a.recordBytes))
		return a.res, a.entry, false, nil
	}
}

// attempt is what the serial half of an apply hands to the waiting half.
type attempt struct {
	res         *eval.Result // nil when the key was already journaled
	entry       Entry
	batch       *commitBatch // the batch entry rides in; nil once it is durable
	leader      bool         // this apply opened batch and flushes it
	commitSpan  *obs.Span
	recordBytes int
}

// tryApply is the serial half of an apply, run under applyMu: evaluate p
// against the speculative head, check the constraints, encode the record,
// extend the speculative head and join the pending batch. retry means a
// group-commit flush ahead of this apply failed: the repository has been
// or will be repaired from disk and the caller runs tryApply again.
// queueStart is when ApplyKey was entered.
func (r *Repository) tryApply(p *term.Program, key string, opts []core.Option, queueStart time.Time) (a attempt, retry bool, err error) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	queue := time.Since(queueStart)
	r.commitMu.Lock()
	if r.closed {
		r.commitMu.Unlock()
		return a, false, ErrClosed
	}
	if r.needRepair {
		r.commitMu.Unlock()
		r.diskMu.Lock()
		defer r.diskMu.Unlock()
		return a, true, r.repairDiskLocked()
	}
	if kr := r.keys[key]; kr != nil { // the empty key is never registered
		a.entry, a.batch = kr.entry, kr.batch
		r.commitMu.Unlock()
		return a, false, nil
	}
	head := r.spec
	r.commitMu.Unlock()
	cons := r.cons.Load()

	// Reuse compiled plans from a previous apply of the same program when
	// they were planned against the current seq class; a mismatched cache
	// entry just recompiles inside eval, so a false hit costs nothing but
	// the lookup.
	ph := eval.ProgramHash(p)
	seqClass := head.seq >> planSeqClassBits
	if cp := r.cachedPlans(ph, seqClass); cp != nil {
		opts = append(opts[:len(opts):len(opts)], core.WithPlans(cp))
		r.met().PlanCacheHits.Inc()
	} else {
		r.met().PlanCacheMisses.Inc()
	}
	eng := core.New(opts...)
	sp := eng.Span()
	sp.AddChild("queue", queueStart, queue)
	res, err := eng.Apply(head.base, p)
	if err != nil {
		return a, false, err
	}
	res.Stats.Queue = queue
	if res.Plans != nil {
		r.storePlans(ph, seqClass, res.Plans)
	}
	constraintStart := time.Now()
	constraintSpan := sp.StartChild("constraints")
	err = checkConstraints(res.Final, cons.cs)
	constraintSpan.SetInt("constraints", int64(len(cons.cs)))
	constraintSpan.End()
	if err != nil {
		r.met().ConstraintRejects.Inc()
		return a, false, err
	}
	res.Stats.ConstraintCheck = time.Since(constraintStart)
	commitStart := time.Now()
	commitSpan := sp.StartChild("commit")
	// The record is written straight from the states the evaluation
	// changed: no comparison of the two bases, no fact lists in between.
	encodeSpan := commitSpan.StartChild("encode")
	added, removed := storage.EncodeChanges(res.Changes)
	entry := Entry{
		Seq:     head.seq + 1,
		Program: parser.FormatProgram(p),
		Key:     key,
		Added:   added,
		Removed: removed,
		Fired:   res.Fired,
		Strata:  res.Assignment.NumStrata(),
	}
	framed := entry.AppendRecord(make([]byte, 0, entry.size()+recordOverhead))
	encodeSpan.SetInt("bytes", int64(len(framed)))
	encodeSpan.End()
	res.Stats.Encode = time.Since(commitStart)

	// Nothing replaced the head meanwhile — that takes applyMu — so the
	// result extends the speculative chain and joins the pending batch.
	r.commitMu.Lock()
	if r.needRepair {
		// The flush of a batch ahead failed while this apply evaluated on
		// top of it; the next attempt repairs and evaluates again.
		r.commitMu.Unlock()
		commitSpan.End()
		return a, true, nil
	}
	ns := &headState{
		snap:    head.snap,
		base:    res.Final,
		prev:    head.base,
		seq:     entry.Seq,
		snapSeq: head.snapSeq,
		entries: append(head.entries, entry),
	}
	b := r.pending
	leader := b == nil
	if leader {
		// The common batch of one is written from the record's own buffer.
		b = &commitBatch{done: make(chan struct{}), buf: framed}
		r.pending = b
	} else {
		b.buf = append(b.buf, framed...)
	}
	b.count++
	b.last = ns
	if key != "" {
		b.keys = append(b.keys, key)
		r.keys[key] = &keyRecord{entry: slimEntry(entry), batch: b}
	}
	r.spec = ns
	r.commitMu.Unlock()
	return attempt{res: res, entry: entry, batch: b, leader: leader, commitSpan: commitSpan, recordBytes: len(framed)}, false, nil
}

// flushPendingLocked seals the pending batch, writes all its records in
// one append+fsync, publishes the new head and wakes the batch. The
// caller must hold diskMu. Failures are delivered through the batch.
func (r *Repository) flushPendingLocked() {
	r.commitMu.Lock()
	b := r.pending
	r.pending = nil
	if b == nil {
		r.commitMu.Unlock()
		return
	}
	if r.needRepair {
		b.err = errors.New("repository: commit aborted: the repository needs repair")
		r.dropBatchKeysLocked(b)
		r.commitMu.Unlock()
		close(b.done)
		return
	}
	buf, count, last := b.buf, b.count, b.last
	r.commitMu.Unlock()

	err := r.appendJournal(buf)
	if err != nil {
		r.commitMu.Lock()
		// The speculative chain now runs ahead of a disk state we no
		// longer trust; recovery rebuilds both before the next commit.
		r.needRepair = true
		b.err = err
		r.dropBatchKeysLocked(b)
		r.commitMu.Unlock()
		close(b.done)
		return
	}
	// The records are durable: publish the head and release the batch.
	r.commitMu.Lock()
	for _, k := range b.keys {
		if kr := r.keys[k]; kr != nil && kr.batch == b {
			kr.batch = nil
		}
	}
	r.commitMu.Unlock()
	r.publish(last)
	m := r.met()
	m.CommitBatchSize.Set(float64(count))
	m.CommitBatches.Inc()
	m.CommitBatchRecords.Add(int64(count))
	close(b.done)
}

// dropBatchKeysLocked removes the idempotency keys a failed batch
// registered; commitMu must be held.
func (r *Repository) dropBatchKeysLocked(b *commitBatch) {
	for _, k := range b.keys {
		if kr := r.keys[k]; kr != nil && kr.batch == b {
			delete(r.keys, k)
		}
	}
}

// appendJournal appends the framed records and fsyncs them; diskMu must
// be held.
func (r *Repository) appendJournal(buf []byte) error {
	jf, err := r.fs.Append(filepath.Join(r.dir, journalFile))
	if err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	writeStart := time.Now()
	if _, err := jf.Write(buf); err != nil {
		jf.Close()
		return fmt.Errorf("repository: %w", err)
	}
	r.met().AppendWrite.Observe(time.Since(writeStart))
	syncStart := time.Now()
	if err := jf.Sync(); err != nil {
		jf.Close()
		return fmt.Errorf("repository: %w", err)
	}
	r.met().AppendFsync.Observe(time.Since(syncStart))
	if err := jf.Close(); err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	return nil
}

// VerifyError reports a repository whose journal replay does not
// reproduce its head — corruption of one of the files.
type VerifyError struct {
	Replayed, Head int // fact counts, for the message
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("repository: journal replay (%d facts) does not reproduce the head (%d facts); the repository is corrupted", e.Replayed, e.Head)
}

// Verify replays the whole journal from the snapshot and checks that the
// result equals the published head — the repository's integrity check.
func (r *Repository) Verify() error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	if err := r.closedErr(); err != nil {
		return err
	}
	if err := r.repairDiskLocked(); err != nil {
		return err
	}
	r.flushPendingLocked()
	return r.verifyDiskLocked()
}

// verifyDiskLocked replays disk state and compares it to the published
// head; diskMu must be held with the pending batch flushed, so disk and
// published agree unless something is corrupted.
func (r *Repository) verifyDiskLocked() error {
	entries, _, err := r.readJournalRaw()
	if err != nil {
		return err
	}
	state, snapSeq, err := r.readBase(snapshotFile)
	if err != nil {
		return err
	}
	for len(entries) > 0 && entries[0].Seq <= snapSeq {
		entries = entries[1:]
	}
	if err := replay(state, entries); err != nil {
		return err
	}
	head := r.published.Load().base
	if !state.Equal(head) {
		return &VerifyError{Replayed: state.Size(), Head: head.Size()}
	}
	return nil
}

// SetRetention installs a hook Compact consults before folding journal
// entries into the snapshot: the hook returns the lowest journal seq that
// must remain replayable (a replication primary returns the lowest seq a
// connected follower still needs). Entries at or below the returned floor
// are compacted; the rest stay in the journal so a follower can resume
// from its last durable seq instead of re-bootstrapping from a snapshot.
// A nil hook (the default) restores the full compact.
func (r *Repository) SetRetention(fn func() int) {
	r.retentionMu.Lock()
	r.retention = fn
	r.retentionMu.Unlock()
}

// compactFloor returns the highest seq Compact may fold into the
// snapshot: the head seq, lowered to the retention hook's floor.
func (r *Repository) compactFloor(hs *headState) int {
	floor := hs.seq
	r.retentionMu.Lock()
	fn := r.retention
	r.retentionMu.Unlock()
	if fn != nil {
		if f := fn(); f < floor {
			floor = f
		}
	}
	if floor < hs.snapSeq {
		floor = hs.snapSeq
	}
	return floor
}

// Compact collapses the repository onto its current head: the head becomes
// the new snapshot and the journal is emptied. Earlier states are no
// longer reconstructable and idempotency keys are forgotten; Verify is run
// first so a corrupted repository is never compacted. When a retention
// hook (SetRetention) pins a floor below the head, only entries at or
// below the floor are folded in and the journal keeps the suffix — along
// with the idempotency keys it holds. A crash between the snapshot
// rewrite and the journal trim is healed by Open, which drops journal
// entries the snapshot already contains. Applies wait for the duration;
// reads do not.
func (r *Repository) Compact() error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	if err := r.closedErr(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { r.met().Compaction.Observe(time.Since(start)) }()
	if err := r.repairDiskLocked(); err != nil {
		return err
	}
	r.flushPendingLocked()
	if err := r.repairDiskLocked(); err != nil { // the flush itself may have failed
		return err
	}
	if err := r.verifyDiskLocked(); err != nil {
		return err
	}
	hs := r.published.Load()
	floor := r.compactFloor(hs)
	if floor == hs.snapSeq {
		return nil // every entry is still needed; nothing to fold
	}
	if floor == hs.seq {
		// Full compact: the head becomes the snapshot, the journal empties.
		if err := r.writeBase(snapshotFile, hs.base, hs.seq); err != nil {
			return err
		}
		ns := &headState{snap: hs.base, base: hs.base, seq: hs.seq, snapSeq: hs.seq}
		r.commitMu.Lock()
		r.spec = ns
		r.keys = make(map[string]*keyRecord)
		r.commitMu.Unlock()
		r.publish(ns)
		if err := r.fs.Truncate(filepath.Join(r.dir, journalFile), 0); err != nil {
			r.commitMu.Lock()
			r.needRepair = true
			r.commitMu.Unlock()
			return fmt.Errorf("repository: %w", err)
		}
		return nil
	}
	// Retention-preserving compact: fold entries snapSeq+1..floor into the
	// snapshot; the suffix floor+1..seq stays in the journal for followers.
	state := hs.snap.Clone()
	remaining := hs.entries[floor-hs.snapSeq:]
	if err := replay(state, hs.entries[:floor-hs.snapSeq]); err != nil {
		return err
	}
	if err := r.writeBase(snapshotFile, state, floor); err != nil {
		return err
	}
	ns := &headState{snap: state.Freeze(), base: hs.base, prev: hs.prev, seq: hs.seq, snapSeq: floor, entries: remaining}
	keys := make(map[string]*keyRecord)
	for _, e := range remaining {
		if e.Key != "" {
			keys[e.Key] = &keyRecord{entry: slimEntry(e)}
		}
	}
	r.commitMu.Lock()
	r.spec = ns
	r.keys = keys
	r.commitMu.Unlock()
	r.publish(ns)
	if err := r.rewriteJournal(remaining); err != nil {
		r.commitMu.Lock()
		r.needRepair = true
		r.commitMu.Unlock()
		return err
	}
	return nil
}

// ErrNoSuchState reports a time-travel target beyond the journal.
var ErrNoSuchState = errors.New("repository: no such state")

// ErrClosed reports an operation on a repository after Close. Reads keep
// serving the last published state; mutations and disk operations refuse.
var ErrClosed = errors.New("repository: closed")

// Close quiesces the repository and marks it closed: it waits for the
// apply that is evaluating to enqueue, flushes the pending group-commit
// batch, and every later mutating or disk-touching operation (ApplyKey,
// SetConstraints, Compact, Verify, Entries) returns ErrClosed — applies
// queued behind Close included, instead of writing to a repository whose
// owner has moved on. Reads (Head, Snapshot, Log, At, ...) stay wait-free
// against the last published state, so a racing reader never observes a
// torn close. The directory is untouched — Close is how a tenant is
// evicted from residency, not deleted — and reopening it recovers the
// same state, including the journaled idempotency keys. Close is
// idempotent.
func (r *Repository) Close() error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	r.flushPendingLocked()
	r.commitMu.Lock()
	r.closed = true
	r.commitMu.Unlock()
	return nil
}

// closedErr returns ErrClosed once Close has run.
func (r *Repository) closedErr() error {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	if r.closed {
		return ErrClosed
	}
	return nil
}

// At reconstructs the object base after the first seq programs since the
// snapshot (seq 0 is the snapshot itself) by replaying the resident
// journal diffs — wait-free with respect to writers, no disk I/O. The
// returned base is frozen and shares with the snapshot every state the
// replayed programs left alone: Clone it before mutating.
func (r *Repository) At(seq int) (*objectbase.Base, error) {
	hs := r.published.Load()
	r.met().HeadCacheHits.Inc()
	if seq < 0 || seq > len(hs.entries) {
		return nil, fmt.Errorf("%w: %d (journal has %d)", ErrNoSuchState, seq, len(hs.entries))
	}
	return hs.at(seq)
}

// Newest asks Replay for the newest journaled state.
const Newest = -1

// replayed is the one-slot cache of Replay: the traced evaluation of the
// journal entry seq. A journal only grows while its snapshot base stays
// the same one, so (snap, seq) names an entry for good — a reset, a repair
// or a compaction installs another snapshot pointer and the slot misses.
type replayed struct {
	snap *objectbase.Base
	seq  int
	res  *eval.Result
}

// Replay re-evaluates, with tracing on, the program that led to state n
// (numbered as in At; Newest for the last one) on the base of state n-1,
// and returns that evaluation: result(P), the fired updates and the trace
// an apply made with core.WithTrace would have returned. Evaluation is a
// pure function of (base, program) and the journal holds the program of
// every state, so provenance is recomputed when somebody asks instead of
// being built and kept by every apply; it needs the resident journal only,
// which is the same on a primary, on a follower, after a restart and after
// a tenant was evicted and reopened. Rules are labelled as the journaled
// text labels them (an unnamed rule by its line there, which is the text
// Log returns).
//
// Like every read it works on one load of the published head, takes
// neither applyMu nor diskMu and touches no file. The last evaluation is
// kept, so a burst of questions about one state evaluates it once; replays
// run one at a time. The result is shared: callers must not modify it.
// State 0 (the snapshot) and states outside the journal are ErrNoSuchState.
func (r *Repository) Replay(n int) (*eval.Result, error) {
	hs := r.published.Load()
	switch {
	case len(hs.entries) == 0:
		return nil, fmt.Errorf("%w: the journal holds no applied program", ErrNoSuchState)
	case n == Newest:
		n = len(hs.entries)
	case n < 1 || n > len(hs.entries):
		return nil, fmt.Errorf("%w: %d (the journal holds the programs of states 1..%d)", ErrNoSuchState, n, len(hs.entries))
	}
	entry := hs.entries[n-1]
	r.replayMu.Lock()
	defer r.replayMu.Unlock()
	if c := r.lastReplay; c != nil && c.snap == hs.snap && c.seq == entry.Seq {
		return c.res, nil
	}
	before, err := hs.at(n - 1)
	if err != nil {
		return nil, err
	}
	p, err := parser.Program(entry.Program, journalFile)
	if err != nil {
		return nil, fmt.Errorf("repository: journal entry %d: %w", entry.Seq, err)
	}
	res, err := eval.Run(before, p, eval.Options{Trace: true})
	if err != nil {
		return nil, fmt.Errorf("repository: journal entry %d: %w", entry.Seq, err)
	}
	r.lastReplay = &replayed{snap: hs.snap, seq: entry.Seq, res: res}
	return res, nil
}
