package repository

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/workload"
)

// TestAtReturnsTheCommittedBase is the apply-then-At property of the update
// postulates (ROADMAP 1(b)): on random small apply sequences, At(k) is the
// base apply k committed, for every k — frozen, and the very bases the head
// keeps for the two newest states — before and after a close and reopen.
func TestAtReturnsTheCommittedBase(t *testing.T) {
	sequences := 12
	if testing.Short() {
		sequences = 4
	}
	for seed := 1; seed <= sequences; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			const n = 24 // a delta layer holds one version: most applies build a new root
			r, err := Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: n, Seed: int64(seed)}.ObjectBase())
			if err != nil {
				t.Fatal(err)
			}
			initial, _ := r.Head()
			committed := []*objectbase.Base{initial}
			for step := 1; step <= 2+rng.Intn(14); step++ {
				res, err := r.Apply(prog(t, randomProgram(rng, n, step)))
				if err != nil {
					t.Fatalf("apply %d: %v", step, err)
				}
				committed = append(committed, res.Final)
			}
			check := func(r *Repository, when string) {
				t.Helper()
				for k, want := range committed {
					at, err := r.At(k)
					if err != nil {
						t.Fatalf("%s: At(%d): %v", when, k, err)
					}
					if !at.Frozen() {
						t.Errorf("%s: At(%d) is mutable", when, k)
					}
					if !at.Equal(want) || !want.Equal(at) {
						t.Errorf("%s: At(%d) is not the base apply %d committed:\ngot:\n%swant:\n%s", when, k, k,
							parser.FormatFacts(at, true), parser.FormatFacts(want, true))
					}
				}
				if _, err := r.At(len(committed)); !errors.Is(err, ErrNoSuchState) {
					t.Errorf("%s: At(%d) past the journal = %v, want ErrNoSuchState", when, len(committed), err)
				}
				if _, err := r.At(-1); !errors.Is(err, ErrNoSuchState) {
					t.Errorf("%s: At(-1) = %v, want ErrNoSuchState", when, err)
				}
			}
			check(r, "live")
			last := len(committed) - 1
			if at, _ := r.At(last); at != committed[last] {
				t.Errorf("At(%d) rebuilt the head instead of returning it", last)
			}
			if at, _ := r.At(last - 1); at != committed[last-1] {
				t.Errorf("At(%d) rebuilt the state the head keeps as the last apply's input", last-1)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(r.Dir())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			check(reopened, "reopened")
		})
	}
}

// sameEvaluation compares what an explanation is read from: result(P), the
// fired updates and the trace, event for event in order.
func sameEvaluation(got, want *eval.Result) error {
	switch {
	case got.Fired != want.Fired:
		return fmt.Errorf("fired %d updates, want %d", got.Fired, want.Fired)
	case !reflect.DeepEqual(got.Trace, want.Trace):
		return fmt.Errorf("trace differs:\n got %v\nwant %v", got.Trace, want.Trace)
	case !got.Result.Equal(want.Result) || !want.Result.Equal(got.Result):
		return fmt.Errorf("result(P) differs:\ngot:\n%swant:\n%s", parser.FormatFacts(got.Result, true), parser.FormatFacts(want.Result, true))
	case !got.Final.Equal(want.Final):
		return fmt.Errorf("ob' differs")
	}
	return nil
}

// TestReplay: every state of a random sequence replays to the evaluation a
// traced apply of the same program on the same base makes — on the
// repository that ran the applies (untraced, as the server runs them), on a
// follower that only received the entries, and on both after a reopen — and
// asking again about the same state does not evaluate again.
func TestReplay(t *testing.T) {
	const n, steps = 24, 10
	rng := rand.New(rand.NewSource(22))
	initial := workload.EnterpriseSpec{Employees: n, Seed: 22}.ObjectBase()
	primary, err := Init(t.TempDir()+"/primary", initial)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Init(t.TempDir()+"/follower", initial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Replay(Newest); !errors.Is(err, ErrNoSuchState) {
		t.Errorf("Replay(Newest) on an empty journal = %v, want ErrNoSuchState", err)
	}
	var traced []*eval.Result
	for step := 1; step <= steps; step++ {
		p := prog(t, randomProgram(rng, n, step))
		head, _ := primary.Head()
		want, err := core.New(core.WithTrace()).Apply(head, p)
		if err != nil {
			t.Fatalf("apply %d: %v", step, err)
		}
		traced = append(traced, want)
		res, err := primary.Apply(p)
		if err != nil {
			t.Fatalf("apply %d: %v", step, err)
		}
		if res.Trace != nil {
			t.Fatalf("apply %d built a trace nobody asked for", step)
		}
		if hs := primary.published.Load(); hs.prev != head {
			t.Fatalf("apply %d: the head does not keep the base it was evaluated on", step)
		}
		// The newest state replays on the base the head kept.
		got, err := primary.Replay(Newest)
		if err != nil {
			t.Fatalf("Replay(Newest) after apply %d: %v", step, err)
		}
		if err := sameEvaluation(got, want); err != nil {
			t.Errorf("Replay(Newest) after apply %d: %v", step, err)
		}
		// The follower receives the entries in batches of one to three.
		if step%3 == 0 || step == steps {
			_, fseq := follower.Snapshot()
			entries, _, _ := primary.EntriesAfter(fseq)
			if err := follower.ApplyReplicaBatch(entries); err != nil {
				t.Fatalf("ApplyReplicaBatch: %v", err)
			}
			before, _ := primary.At(step - 1)
			if hs := follower.published.Load(); hs.prev == nil || !hs.prev.Equal(before) {
				t.Fatalf("the follower's head does not keep state %d", step-1)
			}
		}
	}
	check := func(r *Repository, who string) {
		t.Helper()
		for _, k := range rng.Perm(steps) {
			got, err := r.Replay(k + 1)
			if err != nil {
				t.Fatalf("%s: Replay(%d): %v", who, k+1, err)
			}
			if err := sameEvaluation(got, traced[k]); err != nil {
				t.Errorf("%s: Replay(%d): %v", who, k+1, err)
			}
			if again, _ := r.Replay(k + 1); again != got {
				t.Errorf("%s: a second Replay(%d) evaluated again", who, k+1)
			}
		}
		newest, err := r.Replay(Newest)
		if last, _ := r.Replay(steps); err != nil || newest != last {
			t.Errorf("%s: Replay(Newest) is not Replay(%d) (%v)", who, steps, err)
		}
		for _, k := range []int{0, steps + 1, -2} {
			if _, err := r.Replay(k); !errors.Is(err, ErrNoSuchState) {
				t.Errorf("%s: Replay(%d) = %v, want ErrNoSuchState", who, k, err)
			}
		}
	}
	check(primary, "primary")
	check(follower, "follower")
	for _, r := range []*Repository{primary, follower} {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(r.Dir())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		check(reopened, "reopened "+r.Dir())
	}
}

// TestReplayFollowsTheJournal: what Replay keeps is an evaluation of one
// journal entry. A compaction renumbers the states and a reset replaces the
// history under the same seq; neither may be answered from the slot.
func TestReplayFollowsTheJournal(t *testing.T) {
	r := replTestInit(t, t.TempDir()+"/repo")
	for _, pct := range []string{"2", "3"} {
		if _, err := r.Apply(replTestProgram(t, pct)); err != nil {
			t.Fatal(err)
		}
	}
	raised := func(res *eval.Result) string {
		return parser.FormatFacts(res.Final, false)
	}
	res, err := r.Replay(2)
	if err != nil || raised(res) != "henry.isa -> empl.\nhenry.sal -> 6000.\n" {
		t.Fatalf("Replay(2) = %q (%v)", raised(res), err)
	}
	// A divergent history at the same seq: back to state 1, then times 5.
	state1, _ := r.At(1)
	other := replTestInit(t, t.TempDir()+"/other")
	if err := other.ResetToSnapshot(storage.Snapshot{Base: state1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Apply(replTestProgram(t, "5")); err != nil {
		t.Fatal(err)
	}
	entries, _, _ := other.EntriesAfter(1)
	if err := r.ResetToSnapshot(storage.Snapshot{Base: state1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(Newest); !errors.Is(err, ErrNoSuchState) {
		t.Errorf("Replay(Newest) after a reset = %v, want ErrNoSuchState", err)
	}
	if err := r.ApplyReplicaBatch(entries); err != nil {
		t.Fatal(err)
	}
	if res, err := r.Replay(1); err != nil || raised(res) != "henry.isa -> empl.\nhenry.sal -> 10000.\n" {
		t.Errorf("Replay(1) after the reset answers for the old seq 2: %s (%v)", raised(res), err)
	}
	// Compaction folds the journal away: nothing is left to explain, and
	// the next apply is state 1 again.
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(Newest); !errors.Is(err, ErrNoSuchState) {
		t.Errorf("Replay(Newest) after Compact = %v, want ErrNoSuchState", err)
	}
	if _, err := r.Apply(replTestProgram(t, "7")); err != nil {
		t.Fatal(err)
	}
	if res, err := r.Replay(1); err != nil || raised(res) != "henry.isa -> empl.\nhenry.sal -> 70000.\n" {
		t.Errorf("Replay(1) after Compact: %s (%v)", raised(res), err)
	}
}
