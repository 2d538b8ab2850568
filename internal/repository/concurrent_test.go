package repository

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"verlog/internal/term"
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
	raise := prog(t, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 10.`)

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
	raise := prog(t, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 10.`)

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
