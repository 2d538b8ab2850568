package repository

import (
	"errors"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/term"
)

func TestRepositoryLifecycle(t *testing.T) {
	dir := t.TempDir() + "/repo"
	initial, err := parser.ObjectBase(`henry.isa -> empl / sal -> 1000.`, "init.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Init(dir, initial)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}

	raise := func(pct string) *term.Program {
		p, err := parser.Program(
			`raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * `+pct+`.`, "raise.vlg")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return p
	}

	if _, err := r.Apply(raise("1.1")); err != nil {
		t.Fatalf("Apply 1: %v", err)
	}
	if _, err := r.Apply(raise("2")); err != nil {
		t.Fatalf("Apply 2: %v", err)
	}

	head, err := r.Head()
	if err != nil {
		t.Fatalf("Head: %v", err)
	}
	want := term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(2200))
	if !head.Has(want) {
		t.Errorf("head missing %s:\n%s", want, parser.FormatFacts(head, true))
	}

	// Journal has two entries with programs and diffs.
	entries := r.Log()
	if len(entries) != 2 || entries[0].Seq != 1 || entries[1].Seq != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Fired != 1 {
		t.Errorf("entry 1 fired = %d, want 1", entries[0].Fired)
	}

	// Time travel: state 0 is the initial base, state 1 has 1100.
	at0, err := r.At(0)
	if err != nil {
		t.Fatalf("At(0): %v", err)
	}
	if !at0.Has(term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(1000))) {
		t.Errorf("state 0 should hold sal 1000")
	}
	at1, err := r.At(1)
	if err != nil {
		t.Fatalf("At(1): %v", err)
	}
	if !at1.Has(term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(1100))) {
		t.Errorf("state 1 should hold sal 1100:\n%s", parser.FormatFacts(at1, true))
	}
	at2, err := r.At(2)
	if err != nil {
		t.Fatalf("At(2): %v", err)
	}
	if !at2.Equal(head) {
		t.Errorf("state 2 should equal head")
	}
	if _, err := r.At(3); !errors.Is(err, ErrNoSuchState) {
		t.Errorf("At(3) err = %v, want ErrNoSuchState", err)
	}

	// Reopen and keep working.
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n := r2.Len(); n != 2 {
		t.Fatalf("Len = %d", n)
	}
}

func TestInitRefusesExisting(t *testing.T) {
	dir := t.TempDir() + "/repo"
	initial, _ := parser.ObjectBase(`a.t -> 1.`, "i.vlg")
	if _, err := Init(dir, initial); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if _, err := Init(dir, initial); err == nil {
		t.Errorf("second Init should fail")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(t.TempDir() + "/nope"); err == nil {
		t.Errorf("Open of missing dir should fail")
	}
}

func TestApplyRejectsBadProgram(t *testing.T) {
	dir := t.TempDir() + "/repo"
	initial, _ := parser.ObjectBase(`a.t -> 1.`, "i.vlg")
	r, err := Init(dir, initial)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	// Unsafe rule: unlimited head variable.
	p, err := parser.Program(`r: ins[X].m -> Y <- X.t -> 1.`, "bad.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := r.Apply(p); err == nil {
		t.Fatalf("unsafe program accepted")
	}
	// The head must be unchanged and the journal empty.
	if n := r.Len(); n != 0 {
		t.Errorf("Len = %d; want 0", n)
	}
}
