package strata

import (
	"errors"
	"strings"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/unify"
	"verlog/internal/workload"
)

func parse(t *testing.T, src string) *term.Program {
	t.Helper()
	p, err := parser.Program(src, "test.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// TestEnterpriseStratification checks the paper's Section 4 running
// example: conditions (a)-(c) force { rule1, rule2 }; { rule3 }; { rule4 }.
func TestEnterpriseStratification(t *testing.T) {
	p := parse(t, `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`)
	a, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	want := []int{0, 0, 1, 2}
	for i, w := range want {
		if a.Level[i] != w {
			t.Errorf("level(%s) = %d, want %d (strata: %s)",
				p.Rules[i].Name, a.Level[i], w, a.Format(p.RuleLabels()))
		}
	}
	if a.NumStrata() != 3 {
		t.Errorf("NumStrata = %d, want 3", a.NumStrata())
	}
}

// TestHypotheticalStratification checks the second Section 2.3 example:
// each of the four rules lands in its own stratum, in order.
func TestHypotheticalStratification(t *testing.T) {
	p := parse(t, `
rule1: mod[E].sal -> (S, S') <- E.sal -> S / factor -> F, S' = S * F.
rule2: mod[mod(E)].sal -> (S', S) <- mod(E).sal -> S', E.sal -> S.
rule3: ins[mod(mod(peter))].richest -> no <- mod(E).sal -> SE, mod(peter).sal -> SP, SE > SP.
rule4: ins[ins(mod(mod(peter)))].richest -> yes <- !ins(mod(mod(peter))).richest -> no.
`)
	a, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	want := []int{0, 1, 2, 3}
	for i, w := range want {
		if a.Level[i] != w {
			t.Errorf("level(%s) = %d, want %d (strata: %s)",
				p.Rules[i].Name, a.Level[i], w, a.Format(p.RuleLabels()))
		}
	}
}

// TestAncestorsSingleStratum checks that the recursive ancestors program of
// Section 2.3 stays in one stratum: its recursion runs through positive
// literals only.
func TestAncestorsSingleStratum(t *testing.T) {
	p := parse(t, `
base: ins[X].anc -> P <- X.isa -> person / parents -> P.
step: ins[X].anc -> P <- ins(X).isa -> person / anc -> A, A.isa -> person / parents -> P.
`)
	a, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if a.NumStrata() != 1 {
		t.Fatalf("NumStrata = %d, want 1 (strata: %s)", a.NumStrata(), a.Format(p.RuleLabels()))
	}
}

// TestNotStratifiableNegation rejects a rule negating its own derivations.
func TestNotStratifiableNegation(t *testing.T) {
	p := parse(t, `
r: ins[X].m -> a <- X.isa -> thing, !ins(X).m -> a.
`)
	_, err := Stratify(p)
	if err == nil {
		t.Fatalf("expected not-stratifiable error")
	}
	var nse *NotStratifiableError
	if !asNotStratifiable(err, &nse) {
		t.Fatalf("error type = %T", err)
	}
	if nse.Strict.Cond != CondC {
		t.Errorf("violated condition = %c, want c", nse.Strict.Cond)
	}
}

// TestNotStratifiableDelete rejects mutually recursive deleting rules: a
// rule that reads del(X) while another (unifiable) rule keeps deleting.
func TestNotStratifiableDelete(t *testing.T) {
	p := parse(t, `
r1: del[X].m -> a <- del(X).k -> b.
r2: ins[del(X)].k -> b <- del(X).m -> a.
`)
	// r1 observes del(X) (body of r2... and r1's own head produces del(X)):
	// condition (d) makes r1 strictly below r2 and (b) makes r1 <= ... the
	// cycle r1 -> r2 -> r1 with a strict edge must be rejected.
	_, err := Stratify(p)
	if err == nil {
		t.Fatalf("expected not-stratifiable error")
	}
}

// TestConditionAOrdersCopyBeforeUse: a rule building version mod(X) must
// run after every rule that builds X-unifiable versions it copies from.
func TestConditionAOrdersCopyBeforeUse(t *testing.T) {
	p := parse(t, `
r1: ins[X].m -> a <- X.isa -> thing.
r2: ins[ins(X)].k -> b <- ins(X).m -> a.
`)
	a, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if !(a.Level[0] < a.Level[1]) {
		t.Errorf("levels = %v, want r1 strictly below r2", a.Level)
	}
	// The strict edge must come from condition (a).
	found := false
	for _, e := range a.Edges {
		if e.From == 0 && e.To == 1 && e.Strict && e.Cond == CondA {
			found = true
		}
	}
	if !found {
		t.Errorf("no condition-(a) edge r1 -> r2 in %v", a.Edges)
	}
}

// TestFactsOnlyProgramSingleStratum: update-facts carry no constraints.
func TestFactsOnlyProgramSingleStratum(t *testing.T) {
	p := parse(t, `
ins[henry].hobby -> chess.
ins[henry].hobby -> go.
`)
	a, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if a.NumStrata() != 1 {
		t.Errorf("NumStrata = %d, want 1", a.NumStrata())
	}
}

// TestSortedUnificationKeepsStrataSeparate: a variable must not unify with
// a version-id-term containing a function symbol; otherwise rule1 below
// would be forced under itself through rule2's head.
func TestSortedUnificationKeepsStrataSeparate(t *testing.T) {
	p := parse(t, `
r1: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, S' = S + 1.
r2: ins[mod(E)].tag -> high <- mod(E).sal -> S, S > 100.
`)
	a, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if !(a.Level[0] < a.Level[1]) {
		t.Errorf("levels = %v, want r1 < r2", a.Level)
	}
}

func TestFormat(t *testing.T) {
	p := parse(t, `
r1: mod[E].sal -> (S, S') <- E.sal -> S, S' = S + 1.
r2: ins[mod(E)].t -> a <- mod(E).sal -> S.
`)
	a, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	got := a.Format(p.RuleLabels())
	if !strings.Contains(got, "{r1}; {r2}") {
		t.Errorf("Format = %q", got)
	}
}

func asNotStratifiable(err error, target **NotStratifiableError) bool {
	e, ok := err.(*NotStratifiableError)
	if ok {
		*target = e
	}
	return ok
}

// referenceEdges is the pre-index all-pairs edge construction, kept as the
// oracle for BuildEdges: the indexed version must reproduce it exactly,
// including edge order (violation witnesses are order-dependent).
func referenceEdges(p *term.Program) []Edge {
	n := len(p.Rules)
	heads := make([]term.VersionID, n)
	for i, r := range p.Rules {
		heads[i] = headVID(r)
	}
	type edgeKey struct {
		from, to int
		strict   bool
		cond     Cond
	}
	seen := map[edgeKey]bool{}
	var edges []Edge
	add := func(from, to int, strict bool, cond Cond) {
		k := edgeKey{from, to, strict, cond}
		if seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, Edge{From: from, To: to, Strict: strict, Cond: cond})
	}
	for to, r := range p.Rules {
		for _, sub := range r.Head.V.Subterms() {
			for from := range p.Rules {
				if unify.VersionIDs(heads[from], sub) {
					add(from, to, true, CondA)
				}
			}
		}
		for _, bv := range bodyVIDs(r) {
			for _, sub := range bv.v.Subterms() {
				for from := range p.Rules {
					if unify.VersionIDs(heads[from], sub) {
						add(from, to, bv.neg, condBC(bv.neg))
					}
				}
			}
			outer := bv.v.Path.Outer()
			if outer != term.Del && outer != term.Mod {
				continue
			}
			inner := term.VersionID{Base: bv.v.Base, Path: bv.v.Path[:bv.v.Path.Len()-1]}
			for from := range p.Rules {
				if heads[from].Path.Outer() != outer {
					continue
				}
				hInner := term.VersionID{Base: heads[from].Base, Path: heads[from].Path[:heads[from].Path.Len()-1]}
				if unify.VersionIDs(hInner, inner) {
					add(from, to, true, CondD)
				}
			}
		}
	}
	return edges
}

// TestBuildEdgesMatchesReference pins the indexed BuildEdges to the
// all-pairs oracle — same edges in the same order — across programs that
// exercise OID heads, variable heads, negation, condition (d), and the
// generated layered workload.
func TestBuildEdgesMatchesReference(t *testing.T) {
	srcs := map[string]string{
		"enterprise": `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`,
		"oid-heads": `
r1: ins[bob].m -> a <- bob.k -> a.
r2: ins[phil].m -> a <- ins(bob).m -> a.
r3: del[X].m -> a <- ins(X).m -> a, !ins(phil).m -> b.
r4: mod[del(bob)].m -> (a, b) <- del(bob).m -> a.
r5: ins[mod(del(bob))].n -> c <- mod(del(bob)).m -> b.
`,
		"unstratifiable": `
r1: ins[X].p -> a <- !ins(X).q -> a.
r2: ins[X].q -> a <- !ins(X).p -> a.
`,
		"layered": workload.LayeredProgram(96, 3),
	}
	for name, src := range srcs {
		p := parse(t, src)
		got, want := BuildEdges(p), referenceEdges(p)
		if len(got) != len(want) {
			t.Fatalf("%s: %d edges, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: edge[%d] = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestComputeAgreesWithStratifyAndViolations checks the single-pass entry
// point against the two existing ones.
func TestComputeAgreesWithStratifyAndViolations(t *testing.T) {
	good := parse(t, `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, S' = S * 1.1.
rule2: del[mod(E)].* <- mod(E).sal -> S, S > 9000.
`)
	a, bad := Compute(good)
	if len(bad) > 0 {
		t.Fatalf("Compute(good): unexpected violations %v", bad)
	}
	ref, err := Stratify(good)
	if err != nil {
		t.Fatalf("Stratify(good): %v", err)
	}
	for i := range ref.Level {
		if a.Level[i] != ref.Level[i] {
			t.Errorf("Compute level[%d] = %d, Stratify = %d", i, a.Level[i], ref.Level[i])
		}
	}

	cyc := parse(t, `
r1: ins[X].p -> a <- !ins(X).q -> a.
r2: ins[X].q -> a <- !ins(X).p -> a.
`)
	a, bad = Compute(cyc)
	if a != nil {
		t.Fatalf("Compute(cyclic): got assignment, want violations")
	}
	// One strongly connected component holds a strict edge: one violation,
	// the one Stratify reports.
	_, err = Stratify(cyc)
	var ref2 *NotStratifiableError
	if !errors.As(err, &ref2) {
		t.Fatalf("Stratify(cyclic) = %v, want a *NotStratifiableError", err)
	}
	if len(bad) != 1 || bad[0].Error() != ref2.Error() || bad[0].Pos != ref2.Pos {
		t.Errorf("Compute(cyclic) = %v, want the one violation %q @%v", bad, ref2.Error(), ref2.Pos)
	}
}
