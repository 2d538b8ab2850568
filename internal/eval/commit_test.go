package eval_test

import (
	"errors"
	"fmt"
	"testing"

	"verlog/internal/eval"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// TestCommitsGiveTheirWorkingMemoryBack: every way a commit ends — an apply
// that commits, one whose diff is empty, one a constraint refuses, and a
// keyed replay — leaves the evaluation's working memory in the slot for the
// next run once the call returns, with a change list that holds none of the
// run's states.
func TestCommitsGiveTheirWorkingMemoryBack(t *testing.T) {
	const n = 50
	r, err := repository.Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: n, Seed: 2}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.SetConstraints(`cap: E.isa -> empl, E.sal -> S, S > 1000000.`); err != nil {
		t.Fatal(err)
	}
	prog := func(src string) *term.Program {
		p, err := parser.Program(src, "p.vlg")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	raise := prog(workload.BulkRaiseProgram)
	apply := func(p *term.Program, key string) func() error {
		return func() error {
			_, _, _, err := r.ApplyKey(p, key)
			return err
		}
	}
	for _, step := range []struct {
		name  string
		apply func() error
		kept  int // the least capacity the parked change list keeps
	}{
		{"committed", apply(raise, ""), n},
		{"empty diff", apply(prog(`mod[e1].sal -> (S, S) <- e1.sal -> S.`), ""), 0},
		{"refused", func() error {
			var cv *repository.ConstraintViolationError
			if _, err := r.Apply(prog(`mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 2000000.`)); !errors.As(err, &cv) {
				return fmt.Errorf("want a constraint violation, got %v", err)
			}
			return nil
		}, 0},
		{"keyed", apply(raise, "k"), n},
		{"keyed replay", func() error {
			_, _, replayed, err := r.ApplyKey(raise, "k")
			if err == nil && !replayed {
				err = errors.New("the repeated key was applied again")
			}
			return err
		}, 0},
	} {
		if err := step.apply(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		changes, held := eval.ParkedChanges()
		if !held {
			t.Fatalf("%s: the slot holds no working memory once the call returned", step.name)
		}
		if len(changes) < step.kept {
			t.Errorf("%s: the parked change list keeps room for %d changes, want %d", step.name, len(changes), step.kept)
		}
		for i, c := range changes {
			if c.Old != nil || c.New != nil {
				t.Fatalf("%s: the parked change list still holds the states of %s at %d", step.name, c.V, i)
			}
		}
	}
}
