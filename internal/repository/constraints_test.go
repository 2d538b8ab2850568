package repository

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/term"
)

func newRepo(t *testing.T, baseSrc string) *Repository {
	t.Helper()
	initial, err := parser.ObjectBase(baseSrc, "init.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Init(t.TempDir()+"/repo", initial)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	return r
}

func prog(t *testing.T, src string) *term.Program {
	t.Helper()
	p, err := parser.Program(src, "p.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestConstraintsBlockViolatingUpdate(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	if err := r.SetConstraints(`
nonneg: E.isa -> empl, E.sal -> S, S < 0.
`); err != nil {
		t.Fatalf("SetConstraints: %v", err)
	}

	// A legal raise commits.
	if _, err := r.Apply(prog(t, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 50.`)); err != nil {
		t.Fatalf("legal apply: %v", err)
	}

	// A cut below zero is rejected and not committed.
	_, err := r.Apply(prog(t, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S - 500.`))
	var cv *ConstraintViolationError
	if !errors.As(err, &cv) {
		t.Fatalf("err = %v, want ConstraintViolationError", err)
	}
	if cv.Constraint != "nonneg" || len(cv.Witnesses) != 1 {
		t.Errorf("violation = %+v", cv)
	}
	// Head still holds the pre-violation salary; the journal holds the
	// install and the legal raise.
	head, err := r.Head()
	if err != nil {
		t.Fatalf("Head: %v", err)
	}
	if !head.Has(term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(150))) {
		t.Errorf("head changed despite violation:\n%s", parser.FormatFacts(head, false))
	}
	if n := r.Len(); n != 2 {
		t.Errorf("journal length = %d, want 2", n)
	}
}

func TestSetConstraintsRejectsViolatedHead(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> -5.`)
	err := r.SetConstraints(`nonneg: E.isa -> empl, E.sal -> S, S < 0.`)
	if err == nil {
		t.Fatalf("constraints accepted against violating head")
	}
}

func TestSetConstraintsRejectsBadSyntax(t *testing.T) {
	r := newRepo(t, `a.t -> 1.`)
	if err := r.SetConstraints(`broken ->`); err == nil {
		t.Errorf("bad syntax accepted")
	}
}

func TestConstraintsSurviveReopen(t *testing.T) {
	r := newRepo(t, `a.n -> 1.`)
	if err := r.SetConstraints(`cap: X.n -> N, N > 10.`); err != nil {
		t.Fatalf("SetConstraints: %v", err)
	}
	r2, err := Open(r.Dir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if cs := r2.Constraints(); len(cs) != 1 || cs[0].Name != "cap" {
		t.Fatalf("Constraints after reopen = %v", cs)
	}
	_, err = r2.Apply(prog(t, `r: mod[X].n -> (N, N') <- X.n -> N, N' = N * 20.`))
	var cv *ConstraintViolationError
	if !errors.As(err, &cv) {
		t.Errorf("err = %v, want ConstraintViolationError", err)
	}
}

func TestNoConstraintsMeansNoChecks(t *testing.T) {
	r := newRepo(t, `a.n -> 1.`)
	if cs := r.Constraints(); cs != nil {
		t.Fatalf("Constraints = %v", cs)
	}
	if _, err := r.Apply(prog(t, `r: mod[X].n -> (N, N') <- X.n -> N, N' = N - 100.`)); err != nil {
		t.Errorf("apply without constraints: %v", err)
	}
}

// TestConstraintsAreJournalRecords: an install and a clear are states of
// the journal, with no program, no firing and an empty diff; the set in
// force follows them through a reopen, and through compactions, which fold
// it into the snapshot, whether they keep a suffix of the journal or not.
func TestConstraintsAreJournalRecords(t *testing.T) {
	r := newRepo(t, `a.n -> 1.`)
	reopen := func(r *Repository) *Repository {
		t.Helper()
		r2, err := Open(r.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if err := r2.Verify(); err != nil {
			t.Fatal(err)
		}
		return r2
	}
	src := `cap: X.n -> N, N > 10.`
	if _, err := r.Apply(prog(t, `r: mod[X].n -> (N, N') <- X.n -> N, N' = N + 1.`)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetConstraints(src); err != nil {
		t.Fatal(err)
	}
	log := r.Log()
	if len(log) != 2 || log[1].Seq != 2 || log[1].Constraints == nil || *log[1].Constraints != src || log[1].Program != "" || log[1].NumAdded != 0 || log[1].NumRemoved != 0 {
		t.Fatalf("log = %+v, want the install as entry 2", log)
	}
	res, err := r.Replay(2)
	if err != nil || res.Fired != 0 || len(res.Changes) != 0 {
		t.Fatalf("Replay(2) = %v, want no firing and no change", err)
	}
	if at1, _ := r.At(1); !at1.Equal(res.Final) {
		t.Errorf("the install changed the base")
	}
	r = reopen(r)
	if cs := r.Constraints(); len(cs) != 1 || cs[0].Name != "cap" {
		t.Fatalf("Constraints after reopen = %v", cs)
	}
	for _, floor := range []int{1, 2} {
		r.SetRetention(func() int { return floor })
		if err := r.Compact(); err != nil {
			t.Fatal(err)
		}
		if r = reopen(r); len(r.Constraints()) != 1 || r.SnapshotSeq() != floor {
			t.Fatalf("after a compact to %d and a reopen: %d constraints, snapshot at %d", floor, len(r.Constraints()), r.SnapshotSeq())
		}
		// The journal's checkpoint holds the set in force at its own seq.
		f, err := os.Open(filepath.Join(r.Dir(), journalFile))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := storage.ReadLog(f, func([]byte) error { return nil })
		f.Close()
		if want := map[int]string{1: "", 2: src}[floor]; err != nil || snap.Constraints != want {
			t.Fatalf("the checkpoint at %d holds the set %q (%v), want %q", floor, snap.Constraints, err, want)
		}
	}
	if err := r.SetConstraints(""); err != nil {
		t.Fatal(err)
	}
	if r = reopen(r); r.Constraints() != nil || r.Log()[0].Seq != 3 {
		t.Fatalf("after a clear and a reopen: %v, log %+v", r.Constraints(), r.Log())
	}
}
