package safety

import (
	"strings"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/term"
)

func parse(t *testing.T, src string) *term.Program {
	t.Helper()
	p, err := parser.Program(src, "t.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestSafePrograms(t *testing.T) {
	srcs := []string{
		// The paper's programs.
		`r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 1.1.`,
		`r: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).sal -> SB, SE > SB.`,
		`r: ins[mod(E)].isa -> hpe <- mod(E).sal -> S, S > 4500, !del[mod(E)].isa -> empl.`,
		`r: ins[X].anc -> P <- ins(X).isa -> person / anc -> A, A.parents -> P.`,
		// Binding through chained equalities.
		`r: ins[X].m -> C <- X.t -> A, B = A + 1, C = B * 2.`,
		// Variable bound via a positive body update-term.
		`r: ins[mod(E)].done -> yes <- mod[E].sal -> (S, S').`,
		// Facts (no body, ground head).
		`r: ins[henry].hobby -> chess.`,
		// Variable bound as a method argument.
		`r: ins[X].seen -> Y <- X.rate@Y -> R.`,
	}
	for _, src := range srcs {
		if err := Program(parse(t, src)); err != nil {
			t.Errorf("safe program rejected: %q: %v", src, err)
		}
	}
}

func TestUnsafePrograms(t *testing.T) {
	cases := []struct {
		src     string
		mention string
	}{
		{`r: ins[X].m -> Y <- X.t -> 1.`, "Y"},
		{`r: ins[X].m -> a.`, "X"},                        // fact with variable
		{`r: ins[X].m -> a <- !X.t -> 1.`, "X"},           // only negative occurrence
		{`r: ins[X].m -> a <- X.t -> 1, Y > 2.`, "Y"},     // comparison does not bind
		{`r: ins[X].m -> Y <- X.t -> 1, Y = Z + 1.`, "Y"}, // equality with unbound rhs
		{`r: ins[X].m -> a <- X.t -> 1, !Y.t -> 1.`, "Y"}, // negated version term
	}
	for _, c := range cases {
		err := Program(parse(t, c.src))
		if err == nil {
			t.Errorf("unsafe program accepted: %q", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.mention) {
			t.Errorf("error for %q does not mention %q: %v", c.src, c.mention, err)
		}
	}
}

func TestStructuralChecksOnBuiltPrograms(t *testing.T) {
	// Programs built programmatically bypass the parser's checks; safety
	// re-validates the structure.
	existsHead := term.Rule{Head: term.UpdateAtom{
		Kind: term.Ins,
		V:    term.NewVersionID(term.Sym("o")),
		App:  term.MethodApp{Method: term.ExistsMethod, Result: term.Sym("o")},
	}}
	if err := checkRule(existsHead); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Errorf("exists head: %v", err)
	}

	modWithoutPair := term.Rule{Head: term.UpdateAtom{
		Kind: term.Mod,
		V:    term.NewVersionID(term.Sym("o")),
		App:  term.MethodApp{Method: "m", Result: term.Sym("a")},
	}}
	if err := checkRule(modWithoutPair); err == nil || !strings.Contains(err.Error(), "result pair") {
		t.Errorf("mod without pair: %v", err)
	}

	insWithPair := term.Rule{Head: term.UpdateAtom{
		Kind:      term.Ins,
		V:         term.NewVersionID(term.Sym("o")),
		App:       term.MethodApp{Method: "m", Result: term.Sym("a")},
		NewResult: term.Sym("b"),
	}}
	if err := checkRule(insWithPair); err == nil || !strings.Contains(err.Error(), "result pair") {
		t.Errorf("ins with pair: %v", err)
	}

	insAll := term.Rule{Head: term.UpdateAtom{
		Kind: term.Ins,
		V:    term.NewVersionID(term.Sym("o")),
		All:  true,
	}}
	if err := checkRule(insAll); err == nil || !strings.Contains(err.Error(), "delete-all") {
		t.Errorf("ins delete-all: %v", err)
	}

	allInBody := term.Rule{
		Head: term.UpdateAtom{Kind: term.Ins, V: term.NewVersionID(term.Sym("o")),
			App: term.MethodApp{Method: "m", Result: term.Sym("a")}},
		Body: []term.Literal{{Atom: term.UpdateAtom{Kind: term.Del, V: term.NewVersionID(term.Sym("o")), All: true}}},
	}
	if err := checkRule(allInBody); err == nil || !strings.Contains(err.Error(), "rule heads") {
		t.Errorf("delete-all in body: %v", err)
	}
}

// checkRule checks a program of the one rule r.
func checkRule(r term.Rule) error { return Program(&term.Program{Rules: []term.Rule{r}}) }

func TestProgramAggregatesErrors(t *testing.T) {
	p := parse(t, `
r1: ins[X].m -> Y <- X.t -> 1.
r2: ins[X].m -> a <- X.t -> 1.
r3: ins[X].m -> Z <- X.t -> 1.
`)
	err := Program(p)
	if err == nil {
		t.Fatalf("no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "r1") || !strings.Contains(msg, "r3") {
		t.Errorf("aggregated error misses rules: %v", msg)
	}
	if strings.Contains(msg, "r2") {
		t.Errorf("safe rule r2 flagged: %v", msg)
	}
}
