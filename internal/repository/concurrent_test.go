package repository

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verlog/internal/core"
	"verlog/internal/fsio"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// salFact is the fact henry.sal -> v; the raise program adds 10 per
// commit, so the salary doubles as a commit counter: a consistent
// snapshot at seq n carries exactly salary 100+10*n.
func salFact(v int64) term.Fact {
	return term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(v))
}

// TestConcurrentApplyReadersSnapshotConsistency hammers parallel ApplyKey
// against wait-free readers (Head, Snapshot, Log, At, Entries) and checks
// the invariants of the commit pipeline: seq is strictly monotonic, every
// published snapshot is internally consistent (salary matches seq), and a
// contended idempotency key commits exactly once.
func TestConcurrentApplyReadersSnapshotConsistency(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	raise := prog(t, raiseSrc)

	const pairs, rounds = 4, 6 // 2 goroutines per pair race each key
	var committed atomic.Int64 // non-replayed commits observed by callers
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs*rounds+64)
	stop := make(chan struct{})

	// Readers: every loaded view must be consistent and never go backwards.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSeq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				head, seq := r.Snapshot()
				if seq < lastSeq {
					errs <- fmt.Errorf("seq went backwards: %d after %d", seq, lastSeq)
					return
				}
				lastSeq = seq
				if !head.Has(salFact(int64(100 + 10*seq))) {
					errs <- fmt.Errorf("snapshot at seq %d is inconsistent: salary != %d", seq, 100+10*seq)
					return
				}
				// Log is a second load: it may already see a later commit
				// than Snapshot did, never an earlier one.
				log := r.Log()
				if len(log) < seq {
					errs <- fmt.Errorf("Log has %d entries, loaded after seq %d", len(log), seq)
					return
				}
				for i, e := range log {
					if e.Seq != i+1 {
						errs <- fmt.Errorf("log entry %d has seq %d", i, e.Seq)
						return
					}
				}
				// Time travel through the same published state.
				if seq > 0 {
					at, err := r.At(seq)
					if err != nil {
						errs <- err
						return
					}
					if !at.Has(salFact(int64(100 + 10*seq))) {
						errs <- fmt.Errorf("At(%d) inconsistent", seq)
						return
					}
				}
				if _, err := r.Entries(); err != nil {
					errs <- fmt.Errorf("Entries during applies: %w", err)
					return
				}
			}
		}()
	}

	// Writers: each key is raced by two goroutines; exactly one must commit.
	var writers sync.WaitGroup
	for p := 0; p < pairs; p++ {
		for half := 0; half < 2; half++ {
			writers.Add(1)
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer writers.Done()
				for i := 0; i < rounds; i++ {
					_, entry, replayed, err := r.ApplyKey(raise, fmt.Sprintf("pair%d-%d", p, i))
					if err != nil {
						errs <- err
						return
					}
					if !replayed {
						committed.Add(1)
					}
					if entry.Seq == 0 {
						errs <- errors.New("committed entry has seq 0")
						return
					}
				}
			}(p)
		}
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const wantCommits = pairs * rounds
	if got := committed.Load(); got != wantCommits {
		t.Errorf("non-replayed commits = %d, want %d (idempotency key committed twice or never)", got, wantCommits)
	}
	if n, _ := r.Len(); n != wantCommits {
		t.Errorf("Len = %d, want %d", n, wantCommits)
	}
	head, _ := r.Head()
	if !head.Has(salFact(100 + 10*wantCommits)) {
		t.Errorf("final head inconsistent: want salary %d", 100+10*wantCommits)
	}
	if err := r.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestConcurrentApplyWithCompact races ApplyKey, Compact and readers: no
// operation may fail, the final state must account for every commit, and
// the journal must verify.
func TestConcurrentApplyWithCompact(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	raise := prog(t, raiseSrc)

	const workers, rounds, compactions = 4, 5, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds+compactions+16)
	stop := make(chan struct{})

	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				head, seq := r.Snapshot()
				if !head.Has(salFact(int64(100 + 10*seq))) {
					errs <- fmt.Errorf("snapshot at seq %d inconsistent during compaction", seq)
					return
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				if _, _, _, err := r.ApplyKey(raise, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < compactions; i++ {
			if err := r.Compact(); err != nil {
				errs <- fmt.Errorf("Compact: %w", err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = workers * rounds
	head, seq := r.Snapshot()
	if seq != total {
		t.Errorf("final seq = %d, want %d", seq, total)
	}
	if !head.Has(salFact(100 + 10*total)) {
		t.Errorf("final head inconsistent: want salary %d", 100+10*total)
	}
	if err := r.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// The full state must survive a reopen regardless of where the last
	// compaction landed.
	r2, err := Open(r.Dir())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	head2, _ := r2.Head()
	if !head2.Equal(head) {
		t.Errorf("reopened head differs from published head")
	}
}

const raiseSrc = `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 10.`

// TestConcurrentApplyWithQuiescers races four writers against each
// operation that takes the repository quiescent (applyMu then diskMu) and
// checks what the operation promises about the applies around it.
func TestConcurrentApplyWithQuiescers(t *testing.T) {
	const writers = 4
	// hot is writer w's flag on henry; the odd writers toggle theirs, which
	// the SetConstraints case forbids once installed.
	hot := func(w int, op, body string) string {
		return fmt.Sprintf(`%s[henry].hot%d -> yes%s.`, op, w, body)
	}
	// A twin applies nothing but raises, so its entries are what a primary
	// would stream to a follower whose writers apply the same raise. A batch
	// of them that starts right after the local head extends the local
	// chain; what the writers overtake meanwhile is skipped.
	twin := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	for i := 0; i < 500; i++ {
		if _, err := twin.Apply(prog(t, raiseSrc)); err != nil {
			t.Fatal(err)
		}
	}
	twinLog := twin.Log()
	cases := []struct {
		name string
		// program is what writer w applies on its i-th turn (nil: the raise).
		program func(w, i int) string
		// expected reports an error the case provokes from writer w's i-th
		// ApplyKey; stops says whether the writer gives up on it.
		expected func(w, i int, err error) (ok, stops bool)
		// quiesce runs on the test goroutine beside the writers and returns
		// the seq that was published when the operation returned.
		quiesce func(t *testing.T, ctx context.Context, r *Repository) int
		// closes says the operation ends the writers, with ErrClosed; the
		// final checks then run on the reopened directory.
		closes bool
		// check runs after the writers have stopped; acked holds what each
		// successful ApplyKey returned.
		check func(t *testing.T, r *Repository, after int, acked []Entry)
	}{
		{
			name: "SetConstraints",
			program: func(w, i int) string {
				switch {
				case w%2 == 0:
					return raiseSrc
				case i%2 == 0:
					return hot(w, "ins", "")
				}
				return hot(w, "del", fmt.Sprintf(` <- henry.hot%d -> yes`, w))
			},
			expected: func(w, i int, err error) (bool, bool) {
				// Only setting a flag may be refused: a refused raise means a
				// flag got into the head behind the installed constraints.
				var cv *ConstraintViolationError
				ok := errors.As(err, &cv) && w%2 == 1 && i%2 == 0
				return ok, !ok
			},
			quiesce: func(t *testing.T, ctx context.Context, r *Repository) int {
				// The head must satisfy the set being installed: try after each
				// commit until one lands where both flags are down.
				for {
					_, seq := r.Snapshot()
					err := r.SetConstraints("h1: henry.hot1 -> yes.\nh3: henry.hot3 -> yes.\n")
					if err == nil {
						_, seq = r.Snapshot()
						return seq
					}
					var cv *ConstraintViolationError
					if !errors.As(err, &cv) {
						t.Fatalf("SetConstraints: %v", err)
					}
					if err := r.WaitPublished(ctx, seq); err != nil {
						t.Fatalf("the flags never came down: %v", err)
					}
				}
			},
			check: func(t *testing.T, r *Repository, after int, acked []Entry) {
				// Every apply evaluated under the empty set was durable when
				// SetConstraints returned; none may surface after it.
				for _, e := range r.Log() {
					if e.Seq > after && strings.Contains(string(e.Added), "hot") {
						t.Errorf("entry %d (%s) violates the constraints installed at seq %d", e.Seq, e.Program, after)
					}
				}
			},
		},
		{
			name:   "Close",
			closes: true,
			expected: func(w, i int, err error) (bool, bool) {
				return errors.Is(err, ErrClosed), true
			},
			quiesce: func(t *testing.T, ctx context.Context, r *Repository) int {
				for i := 0; i < 2; i++ { // idempotent
					if err := r.Close(); err != nil {
						t.Fatalf("Close %d: %v", i, err)
					}
				}
				if _, err := r.Apply(prog(t, raiseSrc)); !errors.Is(err, ErrClosed) {
					t.Errorf("Apply after Close: %v, want ErrClosed", err)
				}
				_, seq := r.Snapshot()
				return seq
			},
			check: func(t *testing.T, r *Repository, after int, acked []Entry) {
				// An ApplyKey that did not fail is durable, one that failed
				// left nothing: the reopened journal is exactly the acked set.
				if len(acked) != after || len(r.Log()) != after {
					t.Errorf("%d applies acknowledged, %d published at Close, %d journaled", len(acked), after, len(r.Log()))
				}
			},
		},
		{
			name: "ApplyReplicaBatch",
			quiesce: func(t *testing.T, ctx context.Context, r *Repository) int {
				_, seq := r.Snapshot()
				if seq >= len(twinLog) {
					t.Fatalf("the writers reached seq %d before the batch was sent; the twin has %d entries", seq, len(twinLog))
				}
				if err := r.ApplyReplicaBatch(twinLog[seq:]); err != nil {
					t.Fatalf("ApplyReplicaBatch: %v", err)
				}
				return len(twinLog)
			},
			check: func(t *testing.T, r *Repository, after int, acked []Entry) {
				if e := r.Log()[after-1]; e.Key != "" {
					t.Errorf("entry %d is local (%s), want the twin's", after, e.Key)
				}
			},
		},
		{
			name: "ResetToSnapshot",
			quiesce: func(t *testing.T, ctx context.Context, r *Repository) int {
				base, err := parser.ObjectBase(`henry.isa -> empl / sal -> 10100.`, "reset.vlg")
				if err != nil {
					t.Fatal(err)
				}
				if err := r.ResetToSnapshot(base, 1000); err != nil {
					t.Fatalf("ResetToSnapshot: %v", err)
				}
				return 1000
			},
			check: func(t *testing.T, r *Repository, after int, acked []Entry) {
				if got := r.SnapshotSeq(); got != after {
					t.Errorf("SnapshotSeq = %d, want %d", got, after)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
			var (
				wg    sync.WaitGroup
				mu    sync.Mutex
				acked []Entry
			)
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						src := raiseSrc
						if tc.program != nil {
							src = tc.program(w, i)
						}
						p, err := parser.Program(src, "p.vlg")
						if err != nil {
							t.Error(err)
							return
						}
						_, e, _, err := r.ApplyKey(p, fmt.Sprintf("w%d-%d", w, i))
						if err != nil {
							ok, stops := false, true
							if tc.expected != nil {
								ok, stops = tc.expected(w, i, err)
							}
							if !ok {
								t.Errorf("writer %d apply %d: %v", w, i, err)
							}
							if stops {
								return
							}
							continue
						}
						mu.Lock()
						acked = append(acked, e)
						mu.Unlock()
					}
				}(w)
			}
			var once sync.Once
			stopWriters := func() {
				once.Do(func() { close(stop) })
				wg.Wait()
			}
			defer stopWriters() // also when the test goroutine bails out
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			go func() { // writers that have all given up make no progress
				wg.Wait()
				cancel()
			}()
			if err := r.WaitPublished(ctx, 2*writers); err != nil {
				t.Fatalf("writers made no progress: %v", err)
			}
			after := tc.quiesce(t, ctx, r)
			if !tc.closes {
				// Let every writer get past the operation before stopping.
				if err := r.WaitPublished(ctx, after+2*writers); err != nil {
					t.Fatalf("writers made no progress after the operation: %v", err)
				}
			}
			stopWriters()
			if tc.closes {
				var err error
				if r, err = Open(r.Dir()); err != nil {
					t.Fatalf("reopen: %v", err)
				}
			}

			// Whatever happened, the journal is one chain: contiguous seqs
			// on the snapshot, every acknowledged entry where it was
			// acknowledged, a head the replay reproduces.
			log := r.Log()
			for i, e := range log {
				if want := r.SnapshotSeq() + 1 + i; e.Seq != want {
					t.Fatalf("journal entry %d has seq %d, want %d", i, e.Seq, want)
				}
			}
			for _, e := range acked {
				if i := e.Seq - r.SnapshotSeq() - 1; i >= 0 && (i >= len(log) || log[i].Key != e.Key) {
					t.Errorf("acknowledged apply %s is not the journal's entry %d", e.Key, e.Seq)
				}
			}
			if tc.program == nil {
				head, seq := r.Snapshot()
				if !head.Has(salFact(int64(100 + 10*seq))) {
					t.Errorf("head at seq %d is not %d raises from the start: an apply was linked onto the wrong chain", seq, seq)
				}
			}
			if tc.check != nil {
				tc.check(t, r, after, acked)
			}
			if err := r.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
			}
		})
	}
}

// syncFaultFS fails one journal fsync, on demand: once armed, the next
// Sync of an appended file reports entered, blocks until release is
// closed, and returns fsio.ErrInjected. Unlike fsio.Fault the machine
// survives, so the repository has to repair itself in place.
type syncFaultFS struct {
	fsio.FS
	armed            atomic.Bool
	entered, release chan struct{}
}

type syncFaultFile struct {
	fsio.File
	fs *syncFaultFS
}

func (f *syncFaultFS) Append(name string) (fsio.File, error) {
	file, err := f.FS.Append(name)
	if err != nil || !f.armed.CompareAndSwap(true, false) {
		return file, err
	}
	return &syncFaultFile{File: file, fs: f}, nil
}

func (f *syncFaultFile) Sync() error {
	close(f.fs.entered)
	<-f.fs.release
	return fsio.ErrInjected
}

// TestFailedFlushRerunsApplyBehindIt: apply B evaluates on the speculative
// head apply A left while A's batch is still in its fsync; the fsync fails.
// B must not commit onto A's state: it repairs the repository from disk,
// evaluates again on the recovered head and commits exactly once.
func TestFailedFlushRerunsApplyBehindIt(t *testing.T) {
	initial, err := parser.ObjectBase(`henry.isa -> empl / sal -> 100.`, "init.vlg")
	if err != nil {
		t.Fatal(err)
	}
	fs := &syncFaultFS{FS: fsio.OS, entered: make(chan struct{}), release: make(chan struct{})}
	r, err := InitFS(t.TempDir()+"/repo", initial, fs)
	if err != nil {
		t.Fatal(err)
	}
	r.Instrument(obs.NewRegistry())
	raise := prog(t, raiseSrc)

	fs.armed.Store(true)
	errA := make(chan error, 1)
	go func() {
		_, _, _, err := r.ApplyKey(raise, "a")
		errA <- err
	}()
	<-fs.entered // A holds diskMu inside its fsync; spec is A's state

	// Options are applied when the engine is built, after the apply has
	// read spec: the first evaluation of B parks there.
	var evals atomic.Int32
	evaluating, proceed := make(chan struct{}), make(chan struct{})
	park := core.Option(func(*core.Engine) {
		if evals.Add(1) == 1 {
			close(evaluating)
			<-proceed
		}
	})
	type applied struct {
		entry Entry
		err   error
	}
	doneB := make(chan applied, 1)
	go func() {
		_, e, _, err := r.ApplyKey(raise, "b", park)
		doneB <- applied{e, err}
	}()
	<-evaluating
	close(fs.release)
	if err := <-errA; !errors.Is(err, fsio.ErrInjected) {
		t.Fatalf("apply A: %v, want the injected fsync failure", err)
	}
	close(proceed)
	b := <-doneB
	if b.err != nil {
		t.Fatalf("apply B: %v", b.err)
	}
	if got := evals.Load(); got != 2 {
		t.Errorf("apply B evaluated %d times, want 2 (once on the failed chain, once after repair)", got)
	}

	// A's record reached the file before its fsync failed, so recovery may
	// keep it; either way B sits right behind what recovery found.
	log := r.Log()
	if n := len(log); b.entry.Seq != n || log[n-1].Key != "b" {
		t.Fatalf("apply B acknowledged as seq %d; the journal is %v", b.entry.Seq, log)
	}
	for _, e := range log[:len(log)-1] {
		if e.Key == "b" {
			t.Errorf("apply B is journaled twice")
		}
	}
	head, seq := r.Snapshot()
	if !head.Has(salFact(int64(100 + 10*seq))) {
		t.Errorf("head at seq %d is not %d raises from the start", seq, seq)
	}
	if m := r.met(); m.Applies.Value() != 1 || m.PlanCacheHits.Value()+m.PlanCacheMisses.Value() != 3 {
		t.Errorf("applies = %d, evaluations = %d; want 1 committed (B) of 3 evaluated (A, B, B again)",
			m.Applies.Value(), m.PlanCacheHits.Value()+m.PlanCacheMisses.Value())
	}
	if err := r.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestBulkApplyBesideWriterStreamGuard: an apply that takes long to
// evaluate is not starved by a stream of short ones, and no evaluation is
// thrown away. Counts only, no clock: under optimistic retry the bulk
// apply lost the race for the head thousands of times per commit.
func TestBulkApplyBesideWriterStreamGuard(t *testing.T) {
	r, err := Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: 3000, Seed: 1}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	r.Instrument(obs.NewRegistry())
	bulk := prog(t, `mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		point := prog(t, fmt.Sprintf(`mod[e%d].sal -> (S, S') <- e%d.sal -> S, S' = S + 1.`, w+7, w+7))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Apply(point); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < 5; i++ {
		_, before := r.Snapshot()
		// The stream is flowing: a point commit has landed since the last
		// bulk apply.
		if err := r.WaitPublished(ctx, before); err != nil {
			t.Errorf("bulk apply %d: the point writers stalled: %v", i, err)
			break
		}
		_, before = r.Snapshot()
		start := time.Now()
		res, e, _, err := r.ApplyKey(bulk, "")
		if err != nil {
			t.Errorf("bulk apply %d: %v", i, err)
			break
		}
		landed := e.Seq - before - 1
		t.Logf("bulk apply %d: %v (queue %v), %d point commits landed meanwhile", i, time.Since(start), res.Stats.Queue, landed)
		if landed >= 50 {
			t.Errorf("bulk apply %d: %d point commits landed while it was trying, want < 50", i, landed)
		}
	}
	close(stop)
	wg.Wait()
	m := r.met()
	evals := m.PlanCacheHits.Value() + m.PlanCacheMisses.Value()
	if commits := m.Applies.Value() + m.ConstraintRejects.Value(); evals != commits {
		t.Errorf("%d evaluations for %d applies: %d were discarded, want none", evals, commits, evals-commits)
	}
}
