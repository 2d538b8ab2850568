package eval

import (
	"errors"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
)

func mustProgram(t *testing.T, src string) *term.Program {
	t.Helper()
	p, err := parser.Program(src, "test.vlg")
	if err != nil {
		t.Fatalf("parse program: %v", err)
	}
	return p
}

func mustBase(t *testing.T, src string) *objectbase.Base {
	t.Helper()
	b, err := parser.ObjectBase(src, "test-ob.vlg")
	if err != nil {
		t.Fatalf("parse object base: %v", err)
	}
	return b
}

func mustRun(t *testing.T, ob *objectbase.Base, p *term.Program, opts Options) *Result {
	t.Helper()
	res, err := Run(ob, p, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func wantFact(t *testing.T, b *objectbase.Base, src string) {
	t.Helper()
	fs, err := parser.Facts(src, "want.vlg")
	if err != nil {
		t.Fatalf("parse fact %q: %v", src, err)
	}
	for _, f := range fs {
		if !b.Has(f) {
			t.Errorf("missing fact %s\nbase:\n%s", f, parser.FormatFacts(b, true))
		}
	}
}

func wantNoFact(t *testing.T, b *objectbase.Base, src string) {
	t.Helper()
	fs, err := parser.Facts(src, "want.vlg")
	if err != nil {
		t.Fatalf("parse fact %q: %v", src, err)
	}
	for _, f := range fs {
		if b.Has(f) {
			t.Errorf("unexpected fact %s\nbase:\n%s", f, parser.FormatFacts(b, true))
		}
	}
}

// --- Section 2.1: the single salary-raise rule -------------------------

const salaryRaise = `
raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 1.1.
`

// TestSalaryRaiseSection21 reproduces the paper's first example: henry with
// salary 250 ends with exactly 275 — once, not repeatedly, because the rule
// only applies to the initial (OID-denoted) version.
func TestSalaryRaiseSection21(t *testing.T) {
	ob := mustBase(t, `henry.isa -> empl / sal -> 250.`)
	res := mustRun(t, ob, mustProgram(t, salaryRaise), Options{})
	wantFact(t, res.Result, `mod(henry).sal -> 275. mod(henry).isa -> empl.`)
	wantNoFact(t, res.Result, `mod(henry).sal -> 250.`)
	// The update terminates: no mod(mod(henry)) version appears.
	for _, v := range res.Result.VersionsOf(term.Sym("henry")) {
		if v.Path.Len() > 1 {
			t.Errorf("unexpected deep version %s: salary raise must fire exactly once", v)
		}
	}
	wantFact(t, res.Final, `henry.sal -> 275. henry.isa -> empl.`)
	wantNoFact(t, res.Final, `henry.sal -> 250.`)
}

// --- Section 2.3 / Figure 2: the enterprise update ---------------------

const enterpriseProgram = `
rule1: mod[E].sal -> (S, S') <-
    E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <-
    E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <-
    mod(E).isa -> empl / boss -> B / sal -> SE,
    mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <-
    mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`

const enterpriseBase = `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`

// TestEnterpriseFigure2 reproduces the full Figure 2 trace: phil is raised
// to 4600 and joins hpe; bob is raised to 4620, out-earns his boss, and is
// fired (vanishes from the new object base).
func TestEnterpriseFigure2(t *testing.T) {
	ob, p := mustBase(t, enterpriseBase), mustProgram(t, enterpriseProgram)
	eachEvaluator(t, ob, p, func(t *testing.T, result, final *objectbase.Base) {
		// Figure 2, intermediate versions in result(P):
		wantFact(t, result, `
mod(phil).sal -> 4600. mod(phil).isa -> empl. mod(phil).pos -> mgr.
mod(bob).sal -> 4620.  mod(bob).isa -> empl.  mod(bob).boss -> phil.
ins(mod(phil)).isa -> hpe. ins(mod(phil)).isa -> empl. ins(mod(phil)).sal -> 4600.
`)
		// del(mod(bob)) exists but holds nothing beyond exists.
		delBob := term.GV(term.Sym("bob"), term.Mod, term.Del)
		if !result.Exists(delBob) {
			t.Errorf("version %s should exist", delBob)
		}
		if st := result.StateOf(delBob); st == nil || !st.OnlyExists() {
			t.Errorf("state of %s should hold only exists", delBob)
		}
		wantNoFact(t, result, `del(mod(bob)).isa -> empl. del(mod(bob)).sal -> 4620.`)
		// No hpe for bob.
		wantNoFact(t, result, `ins(mod(bob)).isa -> hpe.`)

		// New object base ob': phil updated, bob gone.
		wantFact(t, final, `
phil.isa -> empl / isa -> hpe / pos -> mgr / sal -> 4600.
`)
		if got := final.VersionsOf(term.Sym("bob")); len(got) != 0 {
			t.Errorf("bob should be gone from ob', has versions %v", got)
		}
	})
	// Exactly three strata, as the paper derives in Section 4.
	if res := mustRun(t, ob, p, Options{}); res.Assignment.NumStrata() != 3 {
		t.Errorf("NumStrata = %d, want 3", res.Assignment.NumStrata())
	}
}

// TestEnterpriseControlOrder is the Section 2.4 discussion: with bob at
// $4100 the raise happens before the firing check, so bob (4510) no longer
// out-earns phil (4600) and keeps his job. An uncontrolled evaluation that
// fires before raising would wrongly sack him; the VID structure prevents
// that.
func TestEnterpriseControlOrder(t *testing.T) {
	ob := mustBase(t, `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4100.
`)
	res := mustRun(t, ob, mustProgram(t, enterpriseProgram), Options{})
	wantFact(t, res.Final, `
phil.isa -> empl / isa -> hpe / pos -> mgr / sal -> 4600.
bob.isa -> empl / boss -> phil / sal -> 4510.
`)
	// bob stays employed and joins hpe (4510 > 4500).
	wantFact(t, res.Final, `bob.isa -> hpe.`)
}

// --- Section 2.3: hypothetical reasoning ("richest") -------------------

const hypotheticalProgram = `
rule1: mod[E].sal -> (S, S') <- E.sal -> S / factor -> F, S' = S * F.
rule2: mod[mod(E)].sal -> (S', S) <- mod(E).sal -> S', E.sal -> S.
rule3: ins[mod(mod(peter))].richest -> no <-
       mod(E).sal -> SE, mod(peter).sal -> SP, SE > SP.
rule4: ins[ins(mod(mod(peter)))].richest -> yes <-
       !ins(mod(mod(peter))).richest -> no.
`

// TestHypotheticalRichestYes: after the hypothetical raise peter (100*2 =
// 200) tops anna (150*1.2 = 180), so he would be the richest; the raise
// itself is revised away and salaries in ob' stay unchanged.
func TestHypotheticalRichestYes(t *testing.T) {
	ob := mustBase(t, `
peter.isa -> empl / sal -> 100 / factor -> 2.
anna.isa -> empl / sal -> 150 / factor -> 1.2.
`)
	res := mustRun(t, ob, mustProgram(t, hypotheticalProgram), Options{})
	// The hypothetical versions:
	wantFact(t, res.Result, `
mod(peter).sal -> 200. mod(anna).sal -> 180.
mod(mod(peter)).sal -> 100. mod(mod(anna)).sal -> 150.
`)
	// Verdict: yes; and the raise is revised in ob'.
	wantFact(t, res.Final, `peter.richest -> yes. peter.sal -> 100. anna.sal -> 150.`)
	wantNoFact(t, res.Final, `peter.richest -> no. peter.sal -> 200.`)
}

// TestHypotheticalRichestNo: anna's factor 3 raise (450) tops peter (200).
func TestHypotheticalRichestNo(t *testing.T) {
	ob := mustBase(t, `
peter.isa -> empl / sal -> 100 / factor -> 2.
anna.isa -> empl / sal -> 150 / factor -> 3.
`)
	res := mustRun(t, ob, mustProgram(t, hypotheticalProgram), Options{})
	wantFact(t, res.Final, `peter.richest -> no. peter.sal -> 100. anna.sal -> 150.`)
	wantNoFact(t, res.Final, `peter.richest -> yes.`)
}

// --- Section 2.3: recursive ancestors -----------------------------------

const ancestorsProgram = `
base: ins[X].anc -> P <- X.isa -> person / parents -> P.
step: ins[X].anc -> P <- ins(X).isa -> person / anc -> A,
                         A.isa -> person / parents -> P.
`

// TestRecursiveAncestors computes the transitive parents closure with the
// paper's recursive insert rules; anc and parents are set-valued.
func TestRecursiveAncestors(t *testing.T) {
	ob := mustBase(t, `
alice.isa -> person / parents -> bob / parents -> carol.
bob.isa -> person / parents -> dave.
carol.isa -> person / parents -> erin.
dave.isa -> person.
erin.isa -> person.
`)
	p := mustProgram(t, ancestorsProgram)
	eachEvaluator(t, ob, p, func(t *testing.T, _, final *objectbase.Base) {
		wantFact(t, final, `
alice.anc -> bob / anc -> carol / anc -> dave / anc -> erin.
bob.anc -> dave.
carol.anc -> erin.
`)
		wantNoFact(t, final, `alice.anc -> alice. dave.anc -> dave.`)
	})
	// One stratum; the recursion happens inside it.
	if res := mustRun(t, ob, p, Options{}); res.Assignment.NumStrata() != 1 {
		t.Errorf("NumStrata = %d, want 1", res.Assignment.NumStrata())
	}
}

// --- Footnote 2: negated update-term vs negated version-term ------------

// TestNegatedUpdateVsVersionTerm builds the situation of footnote 2: a
// delete-update removed bob's bonus but kept isa -> empl. The negated
// update-term !del[mod(E)].isa -> empl is then TRUE (no such deletion was
// performed), while the negated version-term !del(mod(E)).isa -> empl is
// FALSE (the version holds isa -> empl). The two rules therefore differ.
func TestNegatedUpdateVsVersionTerm(t *testing.T) {
	base := `
bob.isa -> empl / sal -> 5000 / bonus -> 100.
`
	progUpdateTerm := `
r1: mod[E].sal -> (S, S) <- E.isa -> empl / sal -> S.
r2: del[mod(E)].bonus -> B <- mod(E).bonus -> B.
r3: ins[del(mod(E))].isa -> hpe <- del(mod(E)).sal -> S, S > 4500,
                                   !del[mod(E)].isa -> empl.
`
	progVersionTerm := `
r1: mod[E].sal -> (S, S) <- E.isa -> empl / sal -> S.
r2: del[mod(E)].bonus -> B <- mod(E).bonus -> B.
r3: ins[del(mod(E))].isa -> hpe <- del(mod(E)).sal -> S, S > 4500,
                                   !del(mod(E)).isa -> empl.
`
	res1 := mustRun(t, mustBase(t, base), mustProgram(t, progUpdateTerm), Options{})
	wantFact(t, res1.Final, `bob.isa -> hpe.`) // no isa-deletion performed -> rule fires

	res2 := mustRun(t, mustBase(t, base), mustProgram(t, progVersionTerm), Options{})
	wantNoFact(t, res2.Final, `bob.isa -> hpe.`) // version still holds isa -> empl -> negation fails
}

// --- Version linearity ---------------------------------------------------

// TestLinearityViolation: two independent update types on the same initial
// version create incomparable versions mod(o) and del(o); the run-time
// check of Section 5 must reject the program.
func TestLinearityViolation(t *testing.T) {
	ob := mustBase(t, `o.t -> 1 / m -> a.`)
	p := mustProgram(t, `
ra: mod[X].m -> (a, b) <- X.t -> 1.
rb: del[X].m -> a <- X.t -> 1.
`)
	_, err := Run(ob, p, Options{})
	var le *LinearityError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LinearityError", err)
	}
	if le.Object != term.Sym("o") {
		t.Errorf("object = %v, want o", le.Object)
	}
}

// TestInputLinearityChecked: an input base that already violates linearity
// is rejected up front.
func TestInputLinearityChecked(t *testing.T) {
	ob := objectbase.New()
	o := term.Sym("o")
	ob.EnsureObject(o)
	ob.Insert(term.NewFact(term.GV(o, term.Mod), "m", term.Sym("a")))
	ob.Insert(term.NewFact(term.GV(o, term.Del), "m", term.Sym("a")))
	_, err := Run(ob, mustProgram(t, `ins[X].k -> b <- X.m -> a.`), Options{})
	var le *LinearityError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LinearityError", err)
	}
}

// --- Update-terms in rule bodies (positive occurrence) ------------------

// TestPositiveUpdateTermBody: a rule reacting to a performed modification,
// using the positive mod[...] body form with distinct old/new results.
func TestPositiveUpdateTermBody(t *testing.T) {
	ob := mustBase(t, `carl.isa -> empl / sal -> 100.`)
	p := mustProgram(t, `
r1: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, S' = S + 50.
r2: ins[mod(E)].raised -> yes <- mod[E].sal -> (S, S').
`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Final, `carl.sal -> 150. carl.raised -> yes.`)
}

// TestPositiveModBodyEqualResults: the r = r' case of the Section 3 truth
// table — the revision rule of the hypothetical example relies on it when
// factor = 1 (raise equals original).
func TestPositiveModBodyEqualResults(t *testing.T) {
	ob := mustBase(t, `p.sal -> 100 / factor -> 1.`)
	p := mustProgram(t, `
r1: mod[E].sal -> (S, S') <- E.sal -> S / factor -> F, S' = S * F.
r2: ins[mod(E)].noted -> yes <- mod[E].sal -> (S, S'), S = S'.
`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Result, `ins(mod(p)).noted -> yes.`)
}

// --- New-object creation (extension) -------------------------------------

func TestNewObjectCreation(t *testing.T) {
	ob := mustBase(t, `a.isa -> thing.`)
	p := mustProgram(t, `r: ins[log1].notes -> X <- X.isa -> thing.`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Final, `log1.notes -> a.`)

	_, err := Run(ob, p, Options{ForbidNewObjects: true})
	var ne *NewObjectError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want NewObjectError", err)
	}
}

// --- Deletion keeps exists ----------------------------------------------

func TestDeleteAllKeepsExists(t *testing.T) {
	ob := mustBase(t, `x.m -> a / k -> b.`)
	p := mustProgram(t, `r: del[X].* <- X.m -> a.`)
	res := mustRun(t, ob, p, Options{})
	delX := term.GV(term.Sym("x"), term.Del)
	if !res.Result.Exists(delX) {
		t.Fatalf("del(x) must keep its exists note")
	}
	st := res.Result.StateOf(delX)
	if st == nil || !st.OnlyExists() {
		t.Fatalf("del(x) should hold only exists, has %d facts", st.Size())
	}
	// x vanishes from ob'.
	if len(res.Final.VersionsOf(term.Sym("x"))) != 0 {
		t.Errorf("x should be gone from ob'")
	}
}

// --- Determinism and equivalence of strategies ---------------------------

// TestStrategiesAgree: the engine's semi-naive fixpoint over shared states is
// the one naive iteration of T_P over a plain fact set reaches — result(P),
// ob' and the fired updates.
func TestStrategiesAgree(t *testing.T) {
	if _, err := runsLikeSpec(mustBase(t, enterpriseBase), mustProgram(t, enterpriseProgram), Options{}); err != nil {
		t.Error(err)
	}
}

// TestInputNotModified: Run works on a clone.
func TestInputNotModified(t *testing.T) {
	ob := mustBase(t, enterpriseBase)
	before := ob.Clone()
	mustRun(t, ob, mustProgram(t, enterpriseProgram), Options{})
	if !ob.Equal(before) {
		t.Errorf("input base was modified by Run")
	}
}

// --- Trace ----------------------------------------------------------------

func TestTraceRecordsFigure2(t *testing.T) {
	ob := mustBase(t, enterpriseBase)
	res := mustRun(t, ob, mustProgram(t, enterpriseProgram), Options{Trace: true})
	var rules []string
	for _, ev := range res.Trace {
		rules = append(rules, ev.Rule)
	}
	// rule1 (phil), rule2 (bob), rule3 (bob's delete-all: 3 method
	// applications), rule4 (phil).
	counts := map[string]int{}
	for _, r := range rules {
		counts[r]++
	}
	if counts["rule1"] != 1 || counts["rule2"] != 1 || counts["rule3"] != 3 || counts["rule4"] != 1 {
		t.Errorf("trace rule counts = %v, want rule1:1 rule2:1 rule3:3 rule4:1\n%v", counts, res.Trace)
	}
}

// --- Query over result(P) -------------------------------------------------

func TestQueryOverVersions(t *testing.T) {
	ob := mustBase(t, enterpriseBase)
	res := mustRun(t, ob, mustProgram(t, enterpriseProgram), Options{})
	lits, err := parser.Query(`mod(E).sal -> S, S > 4500.`, "q.vlg")
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	bindings, err := Query(res.Result, lits)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(bindings) != 2 {
		t.Fatalf("got %d bindings, want 2: %v", len(bindings), bindings)
	}
	if bindings[0].String() != "E=bob, S=4620" || bindings[1].String() != "E=phil, S=4600" {
		t.Errorf("bindings = %v", bindings)
	}
}
