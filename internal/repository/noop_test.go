package repository

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"verlog/internal/core"
	"verlog/internal/fsio"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/storage"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// salariedGenealogy is a four-generation genealogy whose persons also carry
// salaries, a method the ancestors program neither reads nor writes.
func salariedGenealogy() *objectbase.Base {
	b := workload.GenealogySpec{Generations: 4, Branching: 2}.ObjectBase()
	for i, o := range b.Objects() {
		b.Insert(term.NewFact(term.GVID{Object: o}, "sal", term.Int(int64(100+i))))
	}
	return b
}

// noopRepo is a repository of the salaried genealogy on fs (nil: the disk),
// wired to a registry, in which the ancestors program has run twice: the
// first apply closed the genealogy, the second changed nothing and left its
// record.
func noopRepo(t *testing.T, fs fsio.FS) *Repository {
	t.Helper()
	if fs == nil {
		fs = fsio.OS
	}
	r, err := InitFS(t.TempDir()+"/repo", salariedGenealogy(), fs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	r.Instrument(obs.NewRegistry())
	anc := prog(t, workload.AncestorsProgram)
	for i, want := range []bool{true, false} {
		if e := closureApply(t, r, anc, ""); (e.NumAdded != 0) != want {
			t.Fatalf("closure apply %d: added %d facts", i+1, e.NumAdded)
		}
	}
	return r
}

// closureApply applies p and returns its entry.
func closureApply(t *testing.T, r *Repository, p *term.Program, key string, opts ...core.Option) Entry {
	t.Helper()
	_, e, _, err := r.ApplyKey(p, key, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// evals is the number of evaluations r has run: the applies the plan cache
// served or planned for, less those it proved.
func evals(r *Repository) int64 {
	m := r.met()
	return m.PlanCacheHits.Value() + m.PlanCacheMisses.Value() - m.ProvedNoops.Value()
}

// proof applies p and reports whether the apply was proved rather than
// evaluated, checking that it is one or the other.
func proof(t *testing.T, r *Repository, p *term.Program) (proved bool, e Entry) {
	t.Helper()
	m := r.met()
	ev, pr := evals(r), m.ProvedNoops.Value()
	e = closureApply(t, r, p, "")
	dev, dpr := evals(r)-ev, m.ProvedNoops.Value()-pr
	if dev+dpr != 1 {
		t.Fatalf("one apply made %d evaluations and %d proofs", dev, dpr)
	}
	return dpr == 1, e
}

// TestNoopProofAcrossCommits: a closure apply that changed nothing proves
// the next one, also across a commit of another program that changed
// nothing; a commit that changes the base forces an evaluation, which sees
// the new closure — a salary raise, which the closure does not read, as well
// as an edit of parents or isa. Replay re-derives every entry, the proved
// ones included.
func TestNoopProofAcrossCommits(t *testing.T) {
	r := noopRepo(t, nil)
	anc := prog(t, workload.AncestorsProgram)
	if proved, _ := proof(t, r, anc); !proved {
		t.Fatal("the apply after one that changed nothing, on the same head, was evaluated")
	}
	none := prog(t, `mod[p0_0_0].sal -> (S, S2) <- p0_0_0.sal -> S, S > 1000000, S2 = S + 1.`)
	if proved, e := proof(t, r, none); proved || e.NumAdded != 0 {
		t.Fatalf("the raise of nobody was proved (%v) or changed something (+%d)", proved, e.NumAdded)
	}
	if proved, _ := proof(t, r, anc); !proved {
		t.Error("the closure apply after a commit that changed nothing was evaluated")
	}
	raise := prog(t, `mod[p0_0_0].sal -> (S, S2) <- p0_0_0.sal -> S, S2 = S + 1.`)
	if proved, e := proof(t, r, raise); proved || e.NumAdded == 0 {
		t.Fatalf("the salary raise was proved (%v) or changed nothing (+%d)", proved, e.NumAdded)
	}
	if proved, e := proof(t, r, anc); proved || e.NumAdded != 0 {
		t.Errorf("the closure apply after a salary commit was proved (%v) or added %d facts", proved, e.NumAdded)
	}
	if proved, _ := proof(t, r, anc); !proved {
		t.Error("the closure apply after one that changed nothing was evaluated")
	}
	// The first edit adds a person, whose ancestors the next apply adds; the
	// apply after that changes nothing, and the third is proved. The second
	// gives a person another parent (it writes parents alone), the third
	// takes a person's isa away, which changes no pair of the closure.
	for _, c := range []struct{ edit, added string }{
		{`ins[newborn].isa -> person. ins[newborn].parents -> p0_3_14.`, "newborn.anc=p0_0_0/anc=p0_1_2/anc=p0_2_6/anc=p0_3_14"},
		{`mod[p0_3_14].parents -> (p0_2_6, p0_2_5).`, "newborn.anc=p0_2_5;p0_3_14.anc=p0_2_5"},
		{`mod[p0_3_14].isa -> (person, child).`, ""},
	} {
		if proved, e := proof(t, r, prog(t, c.edit)); proved || e.NumAdded == 0 {
			t.Fatalf("%s: proved %v, added %d facts", c.edit, proved, e.NumAdded)
		}
		proved, e := proof(t, r, anc)
		if added, _ := committedDiff(t, r, e); proved || string(added) != c.added {
			t.Fatalf("after %s the closure apply was proved (%v) or added %q, want %q", c.edit, proved, added, c.added)
		}
		if c.added != "" {
			if proved, e := proof(t, r, anc); proved || e.NumAdded != 0 {
				t.Fatalf("after %s the second closure apply was proved (%v) or added %d facts", c.edit, proved, e.NumAdded)
			}
		}
		if proved, _ := proof(t, r, anc); !proved {
			t.Errorf("after %s a closure apply that follows one that changed nothing was evaluated", c.edit)
		}
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= r.Len(); n++ {
		if _, err := r.Replay(n); err != nil {
			t.Errorf("replay of state %d: %v", n, err)
		}
	}
}

// TestNoopProofJournalsTheSameRecord: the journal of a repository whose
// repeated applies are proved is byte for byte that of one that evaluates
// every apply (an apply with a trace is never proved), constraint installs
// and idempotency keys included; a replayed key commits nothing.
func TestNoopProofJournalsTheSameRecord(t *testing.T) {
	anc := prog(t, workload.AncestorsProgram)
	raise := prog(t, `mod[p0_1_1].sal -> (S, S2) <- p0_1_1.sal -> S, S2 = S + 1.`)
	var journals [2][]byte
	for i, opts := range [][]core.Option{nil, {core.WithTrace()}} {
		dir := t.TempDir() + "/repo"
		r, err := Init(dir, salariedGenealogy())
		if err != nil {
			t.Fatal(err)
		}
		r.Instrument(obs.NewRegistry())
		for j := 0; j < 3; j++ {
			closureApply(t, r, anc, fmt.Sprintf("a%d", j), opts...)
		}
		if err := r.SetConstraints(`c: X.anc -> X.`); err != nil {
			t.Fatal(err)
		}
		closureApply(t, r, anc, "b", opts...)
		closureApply(t, r, raise, "", opts...)
		closureApply(t, r, anc, "", opts...)
		n := r.Len()
		if _, e, replayed, err := r.ApplyKey(anc, "b", opts...); err != nil || !replayed || e.Seq != 5 || r.Len() != n {
			t.Fatalf("the replayed key: %v, replayed %v, seq %d; journal %d → %d entries", err, replayed, e.Seq, n, r.Len())
		}
		if got, want := r.met().ProvedNoops.Value(), map[int]int64{0: 2, 1: 0}[i]; got != want {
			t.Errorf("options %d: %d applies proved, want %d", i, got, want)
		}
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if journals[i], err = os.ReadFile(filepath.Join(dir, journalFile)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(journals[0], journals[1]) {
		t.Errorf("the journal with proved applies differs from the evaluated one:\n%s\n---\n%s", journals[0], journals[1])
	}
}

// TestNoopProofChecksConstraints: a constraint install changes no base, so
// the record made before it proves the next apply. That apply changed
// nothing, so it checks no constraint: every published head satisfies the
// set in force, the head SetConstraints checked included. An apply with a
// span tree is evaluated, so a traced apply reports the rules that ran; it
// changes nothing either, and its tree has no constraints stage.
func TestNoopProofChecksConstraints(t *testing.T) {
	r := noopRepo(t, nil)
	if err := r.SetConstraints(`c1: X.anc -> X. c2: X.parents -> X.`); err != nil {
		t.Fatal(err)
	}
	m := r.met()
	res, _, _, err := r.ApplyKey(prog(t, workload.AncestorsProgram), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != "proved" || m.ProvedNoops.Value() != 1 {
		t.Fatalf("the apply after a constraint install: plan %s, %d proved", res.Plan, m.ProvedNoops.Value())
	}
	if res.Stats.ConstraintCheck != 0 || res.Stats.Eval != 0 || len(res.Stats.Strata) != 0 || res.Stats.Commit == 0 {
		t.Errorf("the proved apply's stages: constraints %v, eval %v, strata %v, commit %v", res.Stats.ConstraintCheck, res.Stats.Eval, res.Stats.Strata, res.Stats.Commit)
	}
	if res.Fired != 34 || res.Assignment.NumStrata() != 1 || len(res.Iterations) != 1 {
		t.Errorf("the proved apply reports fired %d, %d strata, iterations %v", res.Fired, res.Assignment.NumStrata(), res.Iterations)
	}
	root := obs.NewTrace("apply").Root
	res, _, _, err = r.ApplyKey(prog(t, workload.AncestorsProgram), "", core.WithSpan(root))
	if err != nil {
		t.Fatal(err)
	}
	var checked bool
	for _, c := range root.Children {
		checked = checked || c.Name == "constraints"
	}
	if res.Plan == "proved" || m.ProvedNoops.Value() != 1 || checked || res.Stats.ConstraintCheck != 0 || len(res.RuleStats) == 0 {
		t.Errorf("the traced apply: plan %s, %d proved, a constraints stage %v (%v), rule stats %v", res.Plan, m.ProvedNoops.Value(), checked, res.Stats.ConstraintCheck, res.RuleStats)
	}
}

// TestChangeAfterConstraintsChecked: an apply that changes something right
// after SetConstraints is checked against the set just installed, and one
// that breaks it is refused and commits nothing; one that keeps it commits.
func TestChangeAfterConstraintsChecked(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	if err := r.SetConstraints(`cap: E.isa -> empl, E.sal -> S, S > 105.`); err != nil {
		t.Fatal(err)
	}
	seq := r.Len()
	var cv *ConstraintViolationError
	if _, err := r.Apply(prog(t, `mod[henry].sal -> (S, S') <- henry.sal -> S, S' = S + 10.`)); !errors.As(err, &cv) || cv.Constraint != "cap" {
		t.Fatalf("an apply breaking the set just installed: %v, want a violation of cap", err)
	}
	if r.Len() != seq {
		t.Fatalf("the refused apply committed: %d entries, want %d", r.Len(), seq)
	}
	res, err := r.Apply(prog(t, `mod[henry].sal -> (S, S') <- henry.sal -> S, S' = S + 5.`))
	if err != nil || res.Stats.ConstraintCheck == 0 {
		t.Fatalf("an apply keeping the set: %v, constraints checked in %v", err, res.Stats.ConstraintCheck)
	}
}

// TestNoopRecordsEndWithTheHead: every way of installing a head other than
// a commit — the repair after a failed flush, a reset to a snapshot, a
// replica batch, a reopen — ends the records, so the next apply evaluates.
func TestNoopRecordsEndWithTheHead(t *testing.T) {
	anc := prog(t, workload.AncestorsProgram)
	evaluated := func(t *testing.T, r *Repository, what string) {
		t.Helper()
		if proved, e := proof(t, r, anc); proved || e.NumAdded != 0 {
			t.Errorf("after %s: proved %v, added %d facts", what, proved, e.NumAdded)
		}
		if proved, _ := proof(t, r, anc); !proved {
			t.Errorf("after %s the second apply was evaluated", what)
		}
	}
	t.Run("repair", func(t *testing.T) {
		fs := newFaultFS()
		r := noopRepo(t, fs)
		fs.arm(syscall.EIO, appendSync)
		if _, _, _, err := r.ApplyKey(anc, ""); !errors.Is(err, syscall.EIO) {
			t.Fatalf("apply with a failing fsync: %v", err)
		}
		evaluated(t, r, "a failed flush")
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("reset", func(t *testing.T) {
		r := noopRepo(t, nil)
		if err := r.ResetToSnapshot(r.Export()); err != nil {
			t.Fatal(err)
		}
		evaluated(t, r, "ResetToSnapshot")
	})
	t.Run("follower", func(t *testing.T) {
		// The follower takes the primary's first entry, then, promoted, makes
		// the second itself, the same apply that changed nothing; demoted
		// again, it takes the primary's third, which adds a person. The
		// closure it applies next must see that person.
		primary := noopRepo(t, nil)
		f, err := InitAt(t.TempDir()+"/follower", storage.Snapshot{Base: salariedGenealogy()})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.Instrument(obs.NewRegistry())
		if err := f.ApplyReplicaBatch(primary.Log()[:1]); err != nil {
			t.Fatal(err)
		}
		if proved, e := proof(t, f, anc); proved || e.NumAdded != 0 || e.Seq != 2 {
			t.Fatalf("the follower's own apply: proved %v, added %d facts, seq %d", proved, e.NumAdded, e.Seq)
		}
		closureApply(t, primary, prog(t, `ins[newborn].isa -> person. ins[newborn].parents -> p0_3_14.`), "")
		if err := f.ApplyReplicaBatch(primary.Log()); err != nil {
			t.Fatal(err)
		}
		if proved, e := proof(t, f, anc); proved || e.NumAdded == 0 {
			t.Errorf("after a replica batch that added a person: proved %v, added %d facts", proved, e.NumAdded)
		}
		if err := f.Verify(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("reopen", func(t *testing.T) {
		r := noopRepo(t, nil)
		dir := r.Dir()
		r.Close()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.Instrument(obs.NewRegistry())
		evaluated(t, r, "Open")
	})
}
