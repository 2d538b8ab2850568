package derived

import (
	"errors"
	"strings"
	"testing"

	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
)

func mustBase(t *testing.T, src string) *objectbase.Base {
	t.Helper()
	b, err := parser.ObjectBase(src, "ob.vlg")
	if err != nil {
		t.Fatalf("parse base: %v", err)
	}
	return b
}

func mustDerived(t *testing.T, src string) *term.DerivedProgram {
	t.Helper()
	p, err := parser.Derived(src, "d.vlg")
	if err != nil {
		t.Fatalf("parse derived: %v", err)
	}
	return p
}

func TestDerivedSimple(t *testing.T) {
	base := mustBase(t, `
phil.isa -> empl / sal -> 4600.
bob.isa -> empl / sal -> 3000.
`)
	p := mustDerived(t, `
senior: E.rank -> senior <- E.isa -> empl, E.sal -> S, S > 4000.
junior: E.rank -> junior <- E.isa -> empl, !E.rank -> senior.
`)
	ext, err := Run(base, p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := func(src string) {
		fs, _ := parser.Facts(src, "w")
		if !ext.Has(fs[0]) {
			t.Errorf("missing %s", src)
		}
	}
	want(`phil.rank -> senior.`)
	want(`bob.rank -> junior.`)
	if ext.Has(mustFact(t, `phil.rank -> junior.`)) {
		t.Errorf("phil wrongly junior")
	}
	// The stored base is untouched.
	if base.Has(mustFact(t, `phil.rank -> senior.`)) {
		t.Errorf("Run mutated its input")
	}
}

func mustFact(t *testing.T, src string) term.Fact {
	t.Helper()
	fs, err := parser.Facts(src, "f")
	if err != nil || len(fs) != 1 {
		t.Fatalf("fact %q: %v", src, err)
	}
	return fs[0]
}

func TestDerivedRecursive(t *testing.T) {
	base := mustBase(t, `
a.parent -> b. b.parent -> c. c.parent -> d.
`)
	p := mustDerived(t, `
base: X.anc -> P <- X.parent -> P.
step: X.anc -> P <- X.anc -> A, A.parent -> P.
`)
	ext, err := Run(base, p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, w := range []string{`a.anc -> b.`, `a.anc -> c.`, `a.anc -> d.`, `b.anc -> d.`} {
		if !ext.Has(mustFact(t, w)) {
			t.Errorf("missing %s", w)
		}
	}
}

func TestDerivedOverVersions(t *testing.T) {
	// Derived rules may inspect versions: classify raised salaries after an
	// update run.
	base := mustBase(t, `x.isa -> empl / sal -> 5000.`)
	up, err := parser.Program(`r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 2.`, "up")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.Run(base, up, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := mustDerived(t, `
d: E.doubled -> yes <- mod(E).sal -> S2, E.sal -> S, S2 = S * 2.
`)
	ext, err := Run(res.Result, p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ext.Has(mustFact(t, `x.doubled -> yes.`)) {
		t.Errorf("derived fact over versions missing")
	}
}

func TestDerivedNotStratifiable(t *testing.T) {
	p := mustDerived(t, `
r1: X.win -> yes <- X.move -> Y, !Y.win -> yes.
`)
	_, err := Run(mustBase(t, `a.move -> b.`), p, Options{})
	var nse *NotStratifiableError
	if !errors.As(err, &nse) {
		t.Fatalf("err = %v, want NotStratifiableError", err)
	}
}

func TestDerivedUnsafe(t *testing.T) {
	p := mustDerived(t, `r: X.m -> Y <- X.t -> 1.`)
	_, err := Run(mustBase(t, `a.t -> 1.`), p, Options{})
	var ue *UnsafeRuleError
	if !errors.As(err, &ue) || ue.Var != "Y" {
		t.Fatalf("err = %v, want UnsafeRuleError{Y}", err)
	}
}

func TestDerivedHeadCannotBeExists(t *testing.T) {
	_, err := parser.Derived(`r: X.exists -> X <- X.t -> 1.`, "d")
	if err == nil || !strings.Contains(err.Error(), "exists") {
		t.Errorf("err = %v", err)
	}
}

func TestDerivedQuery(t *testing.T) {
	base := mustBase(t, `
a.parent -> b. b.parent -> c.
`)
	p := mustDerived(t, `
base: X.anc -> P <- X.parent -> P.
step: X.anc -> P <- X.anc -> A, A.parent -> P.
`)
	lits, _ := parser.Query(`a.anc -> P.`, "q")
	bs, err := Query(base, p, lits, Options{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(bs) != 2 {
		t.Errorf("bindings = %v", bs)
	}
}

func TestDerivedArgsAndVersionHeads(t *testing.T) {
	base := mustBase(t, `x.rate@2025 -> 10.`)
	p := mustDerived(t, `
d: mod(X).projected@Y2 -> R2 <- X.rate@Y -> R, Y2 = Y + 1, R2 = R * 2.
`)
	ext, err := Run(base, p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ext.Has(mustFact(t, `mod(x).projected@2026 -> 20.`)) {
		t.Errorf("derived versioned fact missing")
	}
}
