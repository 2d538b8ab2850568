// Package repository manages an object base on disk together with the log
// of update-programs applied to it. It implements the long-term-evolution
// side of versioning that Section 1 of the paper calls complementary to
// the per-update versions: each applied program is one evolution step, and
// any past state can be reconstructed by evaluating the journal's programs
// in turn.
//
// Layout of a repository directory:
//
//	journal.jsonl — the log: first a checkpoint, the object base the
//	                entries start from with the constraint set and the
//	                replication epoch in force there (storage.Snapshot's
//	                records), then one checksummed record per applied
//	                program, with the digest of the state it leads to, per
//	                constraint set installed, or per epoch a promotion
//	                opened (replica.go)
//
// and nothing else: every durable fact of a repository is the checkpoint
// and its records.
//
// Durability contract: an update is applied exactly when its journal
// record has been written and fsynced. The current base exists in memory
// only: it is "checkpoint + the journaled programs, evaluated in turn" by
// definition, Open rebuilds it that way, checking each state it derives
// against the digest its record holds, and a commit writes nothing but its
// journal record, so there is no second copy on disk that a crash could
// leave out of step. Records carry a CRC32 checksum; a torn final entry
// record (the signature of power loss mid-append) is truncated away on
// Open, while corruption anywhere else, the checkpoint included, is
// reported, never repaired silently. Init, Compact and ResetToSnapshot replace the whole log with
// one atomic rename (writeLog), so no crash leaves a checkpoint out of
// step with its entries. All file writes go through internal/fsio, whose
// fault injection drives the crash sweep in crash_test.go.
//
// # Concurrency model
//
// The current state lives in memory as an immutable (frozen) object base
// behind an atomic pointer, published only after its journal record is
// durable. Reads (Head, At, Replay, Log, Len, Constraints, ...)
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
// (objectbase.Derive), and its digest and the counts of the facts it adds
// and removes are summed from the changed states alone. With applyMu
// released, the first writer into a batch leads it: under diskMu it writes
// every queued record in one write+fsync, publishes the new head and wakes
// the batch, while the others wait on the batch. So apply k+1 evaluates while batch k's fsync is in
// flight, and under contention one fsync commits many updates.
//
// Three locks, taken in the order applyMu -> diskMu -> commitMu: applyMu
// serializes evaluate-and-enqueue, diskMu file operations and the advance
// of the published head, commitMu the in-memory commit state for a few
// pointer swaps at a time. An operation that needs the repository
// quiescent (SetConstraints, AdvanceEpoch, Compact, Verify,
// ApplyReplicaBatch, all through quiesced; Close, ResetToSnapshot, repair)
// holds applyMu and diskMu and flushes the pending batch: nothing is
// evaluating, nothing is in flight. The one
// re-run is fault handling: an apply that finds a flush ahead of it failed
// repairs the repository from disk and evaluates again.
package repository

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
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

const journalFile = "journal.jsonl"

// headState is one published state of the repository: the frozen object
// base after seq applied programs, together with the frozen base of the
// journal's checkpoint (the snapshot) and the journal entries that connect
// them. States form a chain — each commit derives the next from the
// previous — and are immutable once built, so a reader holding one sees a
// perfectly consistent view no matter what commits land after its load.
type headState struct {
	snap *objectbase.Base // frozen snapshot base (state snapSeq)
	base *objectbase.Base // frozen current base (state seq)
	// prev is the frozen base of state seq-1, the one the last entry was
	// evaluated on, so that explaining the newest state replays nothing
	// (see Replay). It is a base, not the head state it came from: no chain
	// of old heads stays reachable. Nil when there is no entry, and after
	// recovery, which keeps no base besides the head and the snapshot.
	prev    *objectbase.Base
	seq     int
	snapSeq int
	entries []Entry // journal entries snapSeq+1..seq, in order
	// cons and snapCons are the constraint sets in force at seq and snapSeq,
	// epoch and snapEpoch the replication epochs.
	cons, snapCons   *consState
	epoch, snapEpoch uint64
	// digest and snapDigest are the digests of base and snap
	// (storage.Digest); each entry that changes the digest records the new
	// one, so the chain from snapDigest through the entries ends at digest.
	digest, snapDigest storage.Digest
}

// digestAt returns the digest of the state after the first n entries.
func (hs *headState) digestAt(n int) storage.Digest {
	d := hs.snapDigest
	for _, e := range hs.entries[:n] {
		if e.Digest != nil {
			d = *e.Digest
		}
	}
	return d
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

// consState is a constraint set: its source, as journaled, and its parse.
type consState struct {
	src string
	cs  []term.Constraint
}

// consAfter returns the constraint set in force after entries, given cons,
// the set in force before them: that of the last constraints record among
// them.
func consAfter(cons *consState, entries []Entry) (*consState, error) {
	for i := len(entries) - 1; i >= 0; i-- {
		if src := entries[i].Constraints; src != nil {
			return parseCons(*src, journalFile)
		}
	}
	return cons, nil
}

// parseCons parses the source of a constraint set; file labels its errors.
func parseCons(src, file string) (*consState, error) {
	cs, err := parser.Constraints(src, file)
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	return &consState{src: src, cs: cs}, nil
}

// keyRecord is one idempotency-key cache entry: the resident entry of the
// update committed under the key, which ApplyKey answers a replay with (it
// holds no diff to strip). batch is the commit batch the key's update rides
// in, nil once the update is durable; a replay hit on a still-pending key
// waits for the batch so a replayed answer always refers to a durable
// update.
type keyRecord struct {
	entry Entry
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
	// metricsP holds nil-safe instruments; see Instrument.
	metricsP atomic.Pointer[Metrics]

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
	// until it has extended spec and joined the pending batch, and releases
	// it before the batch is flushed; whatever else replaces spec holds it
	// throughout.
	applyMu sync.Mutex
	// baseGen numbers the bases the head has held, for the no-op proof
	// (noop.go): a commit with a non-empty diff, and every head installed
	// other than by a commit, bumps it. applyMu guards it.
	baseGen uint64
	// shapeParams holds the shape parameters of the program derive
	// evaluates; applyMu guards it.
	shapeParams [eval.MaxParams]term.OID

	// planMu guards plans, the plan cache of applies and queries (plans.go).
	// It is a leaf: nothing else is taken, and no call made, while it is
	// held.
	planMu sync.Mutex
	plans  [planSets]planSet

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
	// unwritable is set when a failed journal append could not be undone:
	// the journal may hold bytes no apply committed, so recovery must not
	// read them, and every write fails with ErrJournalUnwritable until the
	// repository is reopened.
	unwritable bool
	recovery   Recovery

	// diskMu serializes every file operation: journal appends, journal
	// replacements, truncation, recovery. The published head only advances
	// under it.
	diskMu sync.Mutex
	// journalLen is the journal's durable length, its length after the
	// last fsync that succeeded, or -1 when it is to be read off the file
	// before the next append (after open and after a rewrite). diskMu
	// guards it.
	journalLen int64

	// replayMu guards lastReplay and makes replays serial (see Replay). It
	// is a leaf: nothing else is taken while it is held.
	replayMu   sync.Mutex
	lastReplay *replayed
}

func newRepository(dir string, fs fsio.FS) *Repository {
	r := &Repository{dir: dir, fs: fs, keys: make(map[string]*keyRecord), journalLen: -1}
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
	// StaleTemps counts the leftover *.tmp files of crashed writers removed.
	StaleTemps int
	// Duration is how long the recovery pass took.
	Duration time.Duration
}

// Clean reports whether Open found nothing to repair.
func (rec Recovery) Clean() bool {
	return !rec.TornTail && rec.StaleTemps == 0
}

// String renders the summary in one line, for server startup logs.
func (rec Recovery) String() string {
	if rec.Clean() {
		return fmt.Sprintf("clean (%d journal entries)", rec.Entries)
	}
	return fmt.Sprintf("recovered (%d journal entries, torn tail=%v cut %d bytes, stale temps removed=%d)",
		rec.Entries, rec.TornTail, rec.TruncatedBytes, rec.StaleTemps)
}

// Init creates a repository at dir holding the initial base.
func Init(dir string, initial *objectbase.Base) (*Repository, error) {
	return InitFS(dir, initial, fsio.OS)
}

// InitFS is Init on an explicit filesystem (fault injection in tests).
func InitFS(dir string, initial *objectbase.Base, fs fsio.FS) (*Repository, error) {
	return InitAtFS(dir, storage.Snapshot{Base: initial}, fs)
}

// Open opens an existing repository, recovering it to a consistent state:
// a torn final journal record is truncated away, stale temp files are
// removed, and the head is rebuilt by evaluating the journal's programs in
// turn from its checkpoint, each state checked against the digest, fired
// count and strata its record holds. A record its program does not
// reproduce is refused like a corrupt record in the middle of the journal:
// Open fails naming its seq, and leaves the directory as it found it.
// Recovery() reports what was done. A directory without a journal is an
// error that wraps fs.ErrNotExist. A directory holding snapshot.bin,
// constraints.vlg or epoch, where earlier versions kept the checkpoint, the
// constraint set and the replication epoch, is refused and left as it is,
// the error naming the migration; so is a journal whose
// records carry diffs, as earlier versions wrote them, or whose checkpoint
// names another evaluator semantics (eval.Semantics) with records after it.
// A checkpoint of another semantics with no record after it is written
// again under this one.
func Open(dir string) (*Repository, error) {
	return OpenFS(dir, fsio.OS)
}

// OpenFS is Open on an explicit filesystem (fault injection in tests).
func OpenFS(dir string, fs fsio.FS) (*Repository, error) {
	for _, old := range []struct{ name, migration string }{
		{"snapshot.bin", "the checkpoint heads journal.jsonl now; a framed snapshot.bin (it starts with \"v1 \") is one, so run `cat snapshot.bin journal.jsonl > journal.new && mv journal.new journal.jsonl && rm snapshot.bin` there (README)"},
		{"constraints.vlg", "the constraint set is a journal record now; move the file away, open the repository and install its set again (verlog repo constrain)"},
		{"epoch", "the replication epoch is a journal record now; remove the file, start the primary and `POST /v1/repl/promote?epoch=E` on it, E the file's last epoch, which writes the record its followers then stream (README)"},
	} {
		if _, err := fs.Stat(filepath.Join(dir, old.name)); err == nil {
			return nil, fmt.Errorf("repository: %s holds %s, which this version does not read: %s", dir, old.name, old.migration)
		}
	}
	if _, err := fs.Stat(filepath.Join(dir, journalFile)); err != nil {
		return nil, fmt.Errorf("repository: %s is not a repository: %w", dir, err)
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

// removeStaleTemps deletes leftover *.tmp files from crashed writers.
func (r *Repository) removeStaleTemps(rec *Recovery) error {
	names, err := r.fs.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
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

// recoverLocked reads the journal and rebuilds the in-memory published
// state from it. The caller must hold applyMu and diskMu (or the repository
// not yet shared). See Open for what it repairs.
func (r *Repository) recoverLocked() error {
	start := time.Now()
	// A journal whose checkpoint cannot be read is refused, never cut: the
	// directory is left as it was found.
	snap, entries, err := r.readLog()
	var torn *storage.TornTailError
	if err != nil && !errors.As(err, &torn) {
		return err
	}
	if err := seqsFollow(snap, entries); err != nil {
		return fmt.Errorf("repository: %w; the repository is corrupted", err)
	}
	if snap.Semantics != eval.Semantics && len(entries) > 0 {
		return fmt.Errorf("repository: %s: the checkpoint was written under evaluator semantics %d, and this version evaluates its %d records under semantics %d; "+
			"run `verlog repo compact` on the directory with the binary that wrote it, which leaves a checkpoint with no records (README)",
			journalFile, snap.Semantics, len(entries), eval.Semantics)
	}
	// The head: the checkpoint's base, then each record's program evaluated
	// on the state before it. Nothing is written before every record checks.
	hs, err := snapHead(snap, snap.Base.Freeze())
	if err != nil {
		return err
	}
	// The checkpoint is a base of its own number, and whatever the outcome
	// the no-op records made on the way end with it.
	r.baseGen++
	hs, err = r.advance(hs, entries, false, &zeroMetrics)
	r.baseGen++
	if err != nil {
		return fmt.Errorf("repository: %s: %w", journalFile, err)
	}
	// The base before the last entry goes: recovery keeps the head and the
	// snapshot resident, no third base, and Replay derives that state when
	// it is asked about.
	hs.prev = nil

	var rec Recovery
	if err := r.removeStaleTemps(&rec); err != nil {
		return err
	}
	r.journalLen = -1 // what recovery leaves of the journal is what is durable
	if torn != nil {
		jpath := filepath.Join(r.dir, journalFile)
		st, err := r.fs.Stat(jpath)
		if err != nil {
			return fmt.Errorf("repository: %w", err)
		}
		if err := r.fs.Truncate(jpath, torn.Offset); err != nil {
			return fmt.Errorf("repository: truncating torn journal tail: %w", err)
		}
		rec.TornTail, rec.TruncatedBytes = true, st.Size()-torn.Offset
	}
	if snap.Semantics != eval.Semantics {
		// No record follows: the checkpoint is stamped with the semantics
		// the records appended from now on are written under.
		if err := r.writeLog(snap, nil); err != nil {
			return err
		}
	}
	rec.Entries = len(entries)
	rec.Duration = time.Since(start)
	r.commitMu.Lock()
	r.spec = hs
	r.keys = keysOf(hs.entries)
	r.recovery = rec
	r.needRepair = false
	r.commitMu.Unlock()
	r.publish(hs)
	r.met().RecoverySeconds.SetDuration(rec.Duration)
	return nil
}

// seqsFollow checks that entries number the states after snap's, in order.
func seqsFollow(snap storage.Snapshot, entries []Entry) error {
	for i, e := range entries {
		if e.Seq != snap.Seq+1+i {
			return fmt.Errorf("journal entry %d has seq %d, want %d", i+1, e.Seq, snap.Seq+1+i)
		}
	}
	return nil
}

// keysOf returns the idempotency-key cache of entries.
func keysOf(entries []Entry) map[string]*keyRecord {
	keys := make(map[string]*keyRecord)
	for _, e := range entries {
		if e.Key != "" {
			keys[e.Key] = &keyRecord{entry: e}
		}
	}
	return keys
}

// writeLog durably replaces the journal with the log of snap and entries:
// the checkpoint's records, stamped with this evaluator's semantics, then
// the entries' (one writeDurable); diskMu must be held. A failure may come
// after the rename landed: the caller rereads the disk (reread).
func (r *Repository) writeLog(snap storage.Snapshot, entries []Entry) error {
	snap.Semantics = eval.Semantics
	buf := snap.Append(nil)
	for _, e := range entries {
		buf = e.AppendRecord(buf)
	}
	r.journalLen = -1
	if err := r.writeDurable(journalFile, buf); err != nil {
		return err
	}
	r.journalLen = int64(len(buf))
	return nil
}

// reread makes the published head what the disk holds after writeLog
// failed, the old log or the new one, so that it is what a reopen reads,
// and returns err; applyMu and diskMu must be held.
func (r *Repository) reread(err error) error {
	r.commitMu.Lock()
	r.needRepair = true
	r.commitMu.Unlock()
	return errors.Join(err, r.repairDiskLocked())
}

// repairDiskLocked re-runs recovery if a previous flush failed partway;
// the caller must hold applyMu and diskMu. It fails any queued commits
// first (needRepair is set, so the flush aborts them), leaving recovery
// nothing in flight to race with.
func (r *Repository) repairDiskLocked() error {
	if err := r.unwritableErr(); err != nil {
		return err
	}
	r.commitMu.Lock()
	need := r.needRepair
	r.commitMu.Unlock()
	if !need {
		return nil
	}
	r.flushPendingLocked()
	return r.recoverLocked()
}

// unwritableErr is ErrJournalUnwritable once a failed append could not be
// cut away (see appendJournal), nil before.
func (r *Repository) unwritableErr() error {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	if r.unwritable {
		return ErrJournalUnwritable
	}
	return nil
}

// writeDurable atomically replaces name with data: unique temp file,
// write, fsync, close, rename, fsync the directory entry.
func (r *Repository) writeDurable(name string, data []byte) error {
	tmp := filepath.Join(r.dir, fmt.Sprintf("%s.%08x.tmp", name, rand.Uint32()))
	f, err := r.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = r.fs.Rename(tmp, filepath.Join(r.dir, name))
	}
	if err != nil {
		r.fs.Remove(tmp)
		return fmt.Errorf("repository: %w", err)
	}
	if err := r.fs.SyncDir(r.dir); err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	return nil
}

// readLog reads the journal file: its checkpoint and its entries, with
// the error of the record it stops at (storage.ReadLog).
func (r *Repository) readLog() (snap storage.Snapshot, entries []Entry, err error) {
	f, err := r.fs.Open(filepath.Join(r.dir, journalFile))
	if err != nil {
		return snap, nil, fmt.Errorf("repository: %w", err)
	}
	defer f.Close()
	if snap, err = storage.ReadLog(f, appendEntry(&entries)); err != nil {
		err = fmt.Errorf("repository: %s: %w", journalFile, err)
	}
	return snap, entries, err
}

// Head returns the current object base: a wait-free load of the published
// in-memory head, with zero disk I/O. The returned base is frozen and
// shared — Clone it before mutating. It reflects every durable update and
// may trail an in-flight apply by one seq (an update is published the
// moment its journal record is fsynced). Its error is always nil; it
// stays because benchmarks/load calls Head with two results.
func (r *Repository) Head() (*objectbase.Base, error) {
	return r.published.Load().base, nil
}

// Snapshot returns the published head base together with its seq, as one
// consistent wait-free load.
func (r *Repository) Snapshot() (*objectbase.Base, int) {
	hs := r.published.Load()
	return hs.base, hs.seq
}

// Export returns the published head as a snapshot: its base, its seq, the
// epoch and the constraint set in force there and its digest, as one
// consistent wait-free load. It is what a follower bootstraps from.
func (r *Repository) Export() storage.Snapshot {
	hs := r.published.Load()
	return storage.Snapshot{Base: hs.base, Seq: hs.seq, Epoch: hs.epoch, Constraints: hs.cons.src, Semantics: eval.Semantics, Digest: hs.digest}
}

// Digest returns the digest of the published head (storage.Digest), wait-free.
func (r *Repository) Digest() storage.Digest {
	return r.published.Load().digest
}

// ReadEntries decodes the framed journal records r holds, a journal file
// or a replication stream body: the entries of its longest valid prefix,
// and the error of the record it stops at (a *storage.TornTailError when
// that is the last thing in r), if any.
func ReadEntries(r io.Reader) ([]Entry, error) {
	var out []Entry
	_, _, err := storage.ReadJournal(r, appendEntry(&out))
	return out, err
}

// appendEntry returns a record consumer that decodes an entry onto out.
func appendEntry(out *[]Entry) func(payload []byte) error {
	return func(payload []byte) error {
		e, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		*out = append(*out, e)
		return nil
	}
}

// Log returns the journal entries of the published head (those since the
// snapshot), wait-free and without disk I/O. The slice is shared and must
// not be mutated. It may trail an in-flight apply by one entry.
func (r *Repository) Log() []Entry {
	return r.published.Load().entries
}

// HistoryBytes reports what the history occupies: the journal file on
// disk, its checkpoint included, and what the resident entries hold in
// memory, their programs, keys and constraint sources (an entry keeps no
// diff, only two counts). Compact empties the second and rewrites the first
// as the checkpoint of its floor and the entries after it, so together they
// tell an operator when compacting is worth it.
func (r *Repository) HistoryBytes() (journal, resident int64) {
	if st, err := r.fs.Stat(filepath.Join(r.dir, journalFile)); err == nil {
		journal = st.Size()
	}
	for _, e := range r.published.Load().entries {
		resident += int64(e.size())
	}
	return journal, resident
}

// Len returns the number of journal entries since the snapshot.
func (r *Repository) Len() int {
	hs := r.published.Load()
	return hs.seq - hs.snapSeq
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
// syntax; see parser.Constraints), replacing the set in force; an empty
// source clears it. Every subsequent Apply verifies the updated base
// against them and refuses to commit on violation. The current head must
// already satisfy them. The set is installed by a journal record of its
// own, with the next seq, no program and no diff, so it reaches followers
// with the stream and the snapshot. Installation runs quiesced, so no
// update can slip between the validation and the switch: every apply
// evaluated under the previous set is durable (or has failed) before the
// head is validated, and every later one reads the new set.
func (r *Repository) SetConstraints(src string) error {
	cons, err := parseCons(src, "constraints")
	if err != nil {
		return err
	}
	return r.quiesced(func(hs *headState) error {
		if err := checkConstraints(hs.base, cons.cs); err != nil {
			return fmt.Errorf("repository: current head already violates constraints: %w", err)
		}
		return r.commitLocked(hs, []Entry{{Seq: hs.seq + 1, Constraints: &src}})
	})
}

// quiesced runs fn on the published head with the repository quiescent:
// applyMu and diskMu held, the pending batch flushed and a failed flush
// repaired, so that nothing is evaluating or in flight and the head is
// what the disk holds. It refuses once the repository is closed.
func (r *Repository) quiesced(fn func(hs *headState) error) error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	if err := r.closedErr(); err != nil {
		return err
	}
	r.flushPendingLocked() // a flush that failed is repaired before anything is appended
	if err := r.repairDiskLocked(); err != nil {
		return err
	}
	return fn(r.published.Load())
}

// commitLocked derives the state entries lead to from hs, the published
// head, as advance does, appends their records in one write+fsync,
// registers their idempotency keys and publishes that state. applyMu and
// diskMu must be held with the pending batch flushed.
func (r *Repository) commitLocked(hs *headState, entries []Entry) error {
	ns, err := r.advance(hs, entries, false, r.met())
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
	for _, e := range entries {
		if e.Key != "" {
			r.keys[e.Key] = &keyRecord{entry: e}
		}
	}
	r.commitMu.Unlock()
	r.publish(ns)
	return nil
}

// Constraints returns the constraints in force at the published head (nil
// if none) — wait-free, no disk I/O.
func (r *Repository) Constraints() []term.Constraint {
	return r.published.Load().cons.cs
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

// Apply evaluates p on the current head, verifies the installed integrity
// constraints against the result, appends the journal entry (fsynced) and
// advances the head to the updated object base. On a constraint violation
// nothing is committed. It returns the evaluation result without result(P)
// and without its changes: Result.Result and Result.Changes are nil (the
// commit builds them in working memory the next apply reuses; the entry
// ApplyKey returns counts the facts it added and removed). Replay recomputes them for a journaled
// apply, as verlog.Apply computes them for a program and a base.
func (r *Repository) Apply(p *term.Program, opts ...core.Option) (*eval.Result, error) {
	res, _, _, err := r.ApplyKey(p, "", opts...)
	return res, err
}

// ApplyKey is Apply under an idempotency key. If key is non-empty and a
// journaled entry already carries it, nothing is re-evaluated: ApplyKey
// returns (nil, that entry, true, nil). Otherwise
// the update is applied, journaled with the key, and returned as Apply
// returns it (without result(P) and changes) with replayed=false. Keys are remembered
// as far back as the journal reaches; Compact clears them along with the
// entries that held them.
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
		wait := a.commit.Span().Stage("wait")
		if a.leader {
			r.diskMu.Lock()
			r.flushPendingLocked()
			r.diskMu.Unlock()
		}
		<-a.batch.done
		a.res.Stats.CommitWait = wait.End()
		a.res.Stats.Commit = a.commit.End()
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
	commit      obs.Stage    // the commit stage, open until the batch is durable
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
	cons := head.cons

	d, err := r.derive(head, p, opts, false, r.met())
	if err != nil {
		return a, false, err
	}
	res, sp := d.res, d.span
	sp.AddChild("queue", queueStart, queue)
	res.Stats.Queue = queue
	// Every published head satisfies head.cons: SetConstraints checks the
	// head it installs a set on, and every commit the ob' it publishes. An
	// apply that changed nothing publishes the head it ran on again, so it
	// has nothing to check.
	if d.changed {
		check := sp.Stage("constraints")
		err = checkConstraints(res.Final, cons.cs)
		check.Span().SetInt("constraints", int64(len(cons.cs)))
		res.Stats.ConstraintCheck = check.End()
		if err != nil {
			res.Release()
			r.met().ConstraintRejects.Inc()
			return a, false, err
		}
	}
	commit := sp.Stage("commit")
	// The record is the request and the digest of the state it leads to.
	encode := commit.Span().Stage("encode")
	entry := Entry{Seq: head.seq + 1, Program: parser.FormatProgram(p), Key: key}
	digest := entry.record(res, head.digest)
	framed := entry.AppendRecord(make([]byte, 0, entry.recordCap()))
	encode.Span().SetInt("bytes", int64(len(framed)))
	res.Stats.Encode = encode.End()

	// Nothing replaced the head meanwhile — that takes applyMu — so the
	// result extends the speculative chain and joins the pending batch.
	r.commitMu.Lock()
	if r.needRepair {
		// The flush of a batch ahead failed while this apply evaluated on
		// top of it; the next attempt repairs and evaluates again.
		r.commitMu.Unlock()
		commit.End()
		return a, true, nil
	}
	next := *head
	next.base, next.prev, next.seq, next.digest = res.Final, head.base, entry.Seq, digest
	next.entries = append(head.entries, entry)
	ns := &next
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
		r.keys[key] = &keyRecord{entry: entry, batch: b}
	}
	r.spec = ns
	r.commitMu.Unlock()
	r.settle(d)
	return attempt{res: res, entry: entry, batch: b, leader: leader, commit: commit, recordBytes: len(framed)}, false, nil
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

// appendJournal appends the framed records to the journal and fsyncs them;
// diskMu must be held. journalLen is the journal's durable length, read off
// the file when it is -1. An append that fails is undone before recovery
// or a reader can see its bytes: the journal is cut back to its durable
// length (a failed fsync is not retried — its pages may be gone while the
// bytes still read back). After a failure the speculative chain runs ahead
// of a disk state we no longer trust, so recovery rebuilds both before the
// next write; if the failed append could not be cut away either, the
// journal may end in it, and the repository turns unwritable.
func (r *Repository) appendJournal(buf []byte) error {
	path := filepath.Join(r.dir, journalFile)
	if r.journalLen < 0 {
		st, err := r.fs.Stat(path)
		if err != nil {
			return r.appendFailed(false, fmt.Errorf("repository: %w", err))
		}
		r.journalLen = st.Size()
	}
	f, err := r.fs.Append(path)
	if err != nil {
		return r.appendFailed(false, fmt.Errorf("repository: %w", err))
	}
	m := r.met()
	writeStart := time.Now()
	if _, err = f.Write(buf); err == nil {
		m.AppendWrite.Observe(time.Since(writeStart))
		syncStart := time.Now()
		if err = f.Sync(); err == nil {
			m.AppendFsync.Observe(time.Since(syncStart))
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		r.journalLen += int64(len(buf))
		return nil
	}
	if terr := r.fs.Truncate(path, r.journalLen); terr != nil {
		return r.appendFailed(true, fmt.Errorf("%w: appending to %s failed (%w), and cutting the append away failed (%w)", ErrJournalUnwritable, journalFile, err, terr))
	}
	return r.appendFailed(false, fmt.Errorf("repository: %w", err))
}

// appendFailed marks the repository for repair after a failed append, and
// unwritable when kept, the append left in the journal; it returns err.
func (r *Repository) appendFailed(kept bool, err error) error {
	r.commitMu.Lock()
	r.needRepair = true
	r.unwritable = r.unwritable || kept
	r.commitMu.Unlock()
	return err
}

// VerifyError reports a repository whose journal does not reproduce its
// head — corruption of the journal, or a head that went wrong in memory.
type VerifyError struct {
	Replayed, Head int // fact counts, for the message
	// Reason is the first thing found out of step — a record its program
	// does not reproduce, a seq out of order, a digest — when there is one.
	Reason error
}

func (e *VerifyError) Error() string {
	if e.Reason != nil {
		return fmt.Sprintf("repository: the journal does not reproduce the head: %v; the repository is corrupted", e.Reason)
	}
	return fmt.Sprintf("repository: journal replay (%d facts) does not reproduce the head (%d facts); the repository is corrupted", e.Replayed, e.Head)
}

func (e *VerifyError) Unwrap() error { return e.Reason }

// Verify reads the journal back and evaluates every record on its
// checkpoint afresh, with no cached plan and no no-op proof (derive), each
// state checked against its record, and checks that the result equals the
// published head, fact for fact and digest for digest — the repository's
// integrity check, independent of every evaluation the head was built by.
func (r *Repository) Verify() error {
	return r.quiesced(func(hs *headState) error {
		snap, entries, err := r.readLog()
		if err != nil {
			return err
		}
		if err := seqsFollow(snap, entries); err != nil {
			return &VerifyError{Reason: err}
		}
		state, err := snapHead(snap, snap.Base.Freeze())
		if err == nil {
			state, err = r.advance(state, entries, true, &zeroMetrics)
		}
		if errors.Is(err, ErrDiverged) {
			return &VerifyError{Reason: err}
		} else if err != nil {
			return err
		}
		if !state.base.Equal(hs.base) {
			return &VerifyError{Replayed: state.base.Size(), Head: hs.base.Size()}
		}
		if state.digest != hs.digest {
			return &VerifyError{Reason: fmt.Errorf("the journal leads to digest %s, the head holds %s", state.digest, hs.digest)}
		}
		return nil
	})
}

// checkDiskLocked checks that the journal on disk is the published head's
// without evaluating or decoding it: every record passes its checksum, the
// checkpoint's facts records hash to the digest its header and the resident
// snapshot hold, every record after it is byte for byte the record of the
// resident entry of its seq, and the chain of digests from the snapshot
// through the entries ends at the head's. diskMu must be held with the
// pending batch flushed, so that disk and memory agree unless something is
// corrupted. A mismatch is a *VerifyError.
func (r *Repository) checkDiskLocked() error {
	data, err := r.fs.ReadFile(filepath.Join(r.dir, journalFile))
	if err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	hs := r.published.Load()
	seq, digest, rest, err := storage.SkipCheckpoint(data)
	switch {
	case err != nil:
		return fmt.Errorf("repository: %s: %w", journalFile, err)
	case seq != hs.snapSeq || digest != hs.snapDigest:
		return &VerifyError{Reason: fmt.Errorf("the checkpoint is of seq %d, digest %s; the resident snapshot of seq %d, digest %s", seq, digest, hs.snapSeq, hs.snapDigest)}
	}
	var rec []byte
	for _, e := range hs.entries {
		rec = e.AppendRecord(rec[:0])
		if !bytes.HasPrefix(rest, rec) {
			return &VerifyError{Reason: fmt.Errorf("the journal's record of seq %d is not the resident entry's", e.Seq)}
		}
		rest = rest[len(rec):]
	}
	if len(rest) > 0 {
		return &VerifyError{Reason: fmt.Errorf("the journal holds %d bytes after the record of seq %d", len(rest), hs.seq)}
	}
	if d := hs.digestAt(len(hs.entries)); d != hs.digest {
		return &VerifyError{Reason: fmt.Errorf("the records' digests end at %s, the head's is %s", d, hs.digest)}
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

// Compact collapses the repository onto its current head: the journal is
// replaced by a checkpoint of the head, earlier states are no longer
// reconstructable and idempotency keys are forgotten. The journal is first
// checked against the resident history by digests and bytes
// (checkDiskLocked), so a corrupted repository is never compacted. When a
// retention hook (SetRetention) pins a floor below the head, the checkpoint
// is of the floor's state and the journal keeps the entries after it, along
// with the idempotency keys they hold. The new journal replaces the old one
// with one rename, so a crash leaves one or the other. Compact changes no
// acknowledged state (base, seq, constraints, epoch), only where the
// journal starts; a Compact that fails may or may not have compacted, and
// the published head is then what the disk holds. Applies wait for the
// duration; reads do not.
func (r *Repository) Compact() error {
	return r.quiesced(func(hs *headState) error {
		start := time.Now()
		defer func() { r.met().Compaction.Observe(time.Since(start)) }()
		if err := r.checkDiskLocked(); err != nil {
			return err
		}
		floor := r.compactFloor(hs)
		if floor == hs.snapSeq {
			return nil // every entry is still needed; nothing to fold
		}
		n := floor - hs.snapSeq
		snap, err := hs.at(n)
		if err != nil {
			return err
		}
		snapCons, err := consAfter(hs.snapCons, hs.entries[:n])
		if err != nil {
			return err
		}
		// The digests follow the changes, the checkpoint is written from the
		// base: they disagree only when a base in memory holds other states
		// than its changes summed to, which no check of the journal sees.
		snapDigest := hs.digestAt(n)
		if d := storage.BaseDigest(snap); d != snapDigest {
			return &VerifyError{Reason: fmt.Errorf("the state of seq %d hashes to %s, its records' digests say %s", floor, d, snapDigest)}
		}
		snapEpoch := hs.snapEpoch
		for _, e := range hs.entries[:n] {
			snapEpoch = max(snapEpoch, e.Epoch)
		}
		remaining := slices.Clone(hs.entries[n:]) // the folded entries go with the old array
		if err := r.writeLog(storage.Snapshot{Base: snap, Seq: floor, Epoch: snapEpoch, Constraints: snapCons.src, Digest: snapDigest}, remaining); err != nil {
			return r.reread(err)
		}
		next := *hs
		next.snap, next.snapSeq, next.entries, next.snapCons, next.snapEpoch, next.snapDigest = snap, floor, remaining, snapCons, snapEpoch, snapDigest
		if len(remaining) == 0 {
			next.prev = nil
		}
		ns := &next
		r.commitMu.Lock()
		r.spec = ns
		r.keys = keysOf(remaining)
		r.commitMu.Unlock()
		r.publish(ns)
		return nil
	})
}

// ErrJournalUnwritable reports a repository whose journal append failed
// and could not be cut back to its durable length: the journal may end in
// bytes no apply committed. Reads keep serving the published head; writes
// fail until the repository is reopened, whose recovery reads the journal
// as the disk kept it.
var ErrJournalUnwritable = errors.New("repository: journal unwritable")

// ErrNoSuchState reports a time-travel target beyond the journal.
var ErrNoSuchState = errors.New("repository: no such state")

// ErrClosed reports an operation on a repository after Close. Reads keep
// serving the last published state; mutations and disk operations refuse.
var ErrClosed = errors.New("repository: closed")

// ErrDiverged reports a journal entry whose program, evaluated on the state
// before it, does not yield what the entry holds: another digest, fired
// count or number of strata than its record (recovery, a follower's batch,
// Verify), or another digest, fired count, number of strata or count of
// added or removed facts than the resident entry (At, Replay). The state the
// journal records is not the one this evaluator derives.
var ErrDiverged = errors.New("repository: journal diverged")

// Close quiesces the repository and marks it closed: it waits for the
// apply that is evaluating to enqueue, flushes the pending group-commit
// batch, and every later mutating or disk-touching operation (ApplyKey,
// SetConstraints, AdvanceEpoch, ApplyReplicaBatch, Compact, Verify) returns
// ErrClosed — applies queued behind Close included, instead of writing to a
// repository whose owner has moved on. Reads (Head, Snapshot, Log, At, ...) stay wait-free
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
// snapshot (seq 0 is the snapshot itself) — wait-free with respect to
// writers, no disk I/O. The head is resident, and so is the state before it
// until the repository is reopened; any other state is derived again by
// evaluating the entries' programs from the snapshot, each evaluation
// checked against its entry, so that one its program does not reproduce is
// ErrDiverged, naming its seq. It costs seq evaluations: an entry keeps no
// diff, and no workload reads history (EXPERIMENTS.md, E36). The returned
// base is frozen and shares with the snapshot every state the programs left
// alone: Clone it before mutating.
func (r *Repository) At(seq int) (*objectbase.Base, error) {
	hs := r.published.Load()
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
//
// The evaluation is held against what the resident entry holds — the
// digest of the state it leads to, the fired count, the strata and the
// counts of added and removed facts: an entry its program no longer
// reproduces is ErrDiverged, naming its seq, and nothing about it is
// explained. So is one before it, when state n-1 is derived again (At). Applies,
// recovery and followers run on plans cached by shape; a replay plans its
// text afresh, so every replay cross-checks them against an independent
// evaluation.
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
	derived := Entry{Seq: entry.Seq}
	derived.record(res, hs.digestAt(n-1))
	if err := entry.reproducedBy(derived, true); err != nil {
		return nil, err
	}
	r.lastReplay = &replayed{snap: hs.snap, seq: entry.Seq, res: res}
	return res, nil
}
