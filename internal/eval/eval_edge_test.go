package eval

import (
	"errors"
	"strings"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/term"
)

// --- Methods with arguments ------------------------------------------------

func TestMethodsWithArguments(t *testing.T) {
	ob := mustBase(t, `
shop.price@apple -> 3 / price@pear -> 4.
`)
	p := mustProgram(t, `
discount: mod[S].price@F -> (P, P') <- S.price@F -> P, P > 3, P' = P - 1.
`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Final, `shop.price@apple -> 3. shop.price@pear -> 3.`)
	wantNoFact(t, res.Final, `shop.price@pear -> 4.`)
}

func TestArgumentsBindVariables(t *testing.T) {
	ob := mustBase(t, `
grid.cell@1,2 -> full.
grid.cell@2,1 -> empty.
`)
	p := mustProgram(t, `
swap: ins[grid].mirror@Y,X -> V <- grid.cell@X,Y -> V.
`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Final, `grid.mirror@2,1 -> full. grid.mirror@1,2 -> empty.`)
}

// --- Update facts (k = 0 rules) --------------------------------------------

// TestUpdateFactsBranchRejected: fact-form ins and del on the same object
// branch the version tree (ins(henry) vs del(henry) are incomparable), so
// the linearity check rejects the program.
func TestUpdateFactsBranchRejected(t *testing.T) {
	ob := mustBase(t, `henry.isa -> empl.`)
	p := mustProgram(t, `
ins[henry].hobby -> chess.
ins[henry].hobby -> go.
del[henry].isa -> empl.
`)
	_, err := Run(ob, p, Options{})
	var le *LinearityError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LinearityError", err)
	}
}

func TestUpdateFactsLinear(t *testing.T) {
	ob := mustBase(t, `henry.isa -> empl.`)
	p := mustProgram(t, `
ins[henry].hobby -> chess.
ins[henry].hobby -> go.
`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Final, `henry.hobby -> chess. henry.hobby -> go. henry.isa -> empl.`)
}

func TestInsDelOnSameObjectViolatesLinearity(t *testing.T) {
	ob := mustBase(t, `henry.isa -> empl.`)
	p := mustProgram(t, `
ins[henry].hobby -> chess.
del[henry].isa -> empl.
`)
	_, err := Run(ob, p, Options{})
	var le *LinearityError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LinearityError", err)
	}
}

// --- Head truth ------------------------------------------------------------

// TestDeleteRequiresExistingFact: del[v].m -> r is head-true only when
// v*.m -> r holds; deleting absent information fires nothing.
func TestDeleteRequiresExistingFact(t *testing.T) {
	ob := mustBase(t, `x.m -> a.`)
	p := mustProgram(t, `r: del[X].m -> b <- X.m -> a.`)
	res := mustRun(t, ob, p, Options{})
	if res.Fired != 0 {
		t.Errorf("fired = %d, want 0", res.Fired)
	}
	if res.Result.HasVersion(term.GV(term.Sym("x"), term.Del)) {
		t.Errorf("del version created for no-op delete")
	}
	wantFact(t, res.Final, `x.m -> a.`)
}

// TestModifyRequiresOldResult: mod[v].m -> (r, r') fires only when v* has
// m -> r.
func TestModifyRequiresOldResult(t *testing.T) {
	ob := mustBase(t, `x.m -> a.`)
	p := mustProgram(t, `r: mod[X].m -> (b, c) <- X.m -> a.`)
	res := mustRun(t, ob, p, Options{})
	if res.Fired != 0 {
		t.Errorf("fired = %d, want 0", res.Fired)
	}
	wantFact(t, res.Final, `x.m -> a.`)
}

// --- Multiple updates on one target ------------------------------------------

func TestMultipleInsertsOneTarget(t *testing.T) {
	ob := mustBase(t, `x.isa -> node / n -> 1. y.isa -> node / n -> 2.`)
	p := mustProgram(t, `r: ins[x].peer -> Y <- Y.isa -> node.`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Final, `x.peer -> x. x.peer -> y.`)
}

func TestMultipleModsSameMethodKey(t *testing.T) {
	// Set-valued method: two mods replace two results of the same key.
	ob := mustBase(t, `x.tag -> a / tag -> b / tag -> keep.`)
	p := mustProgram(t, `
r: mod[x].tag -> (T, T') <- x.tag -> T, T != keep, T' = 1.
`)
	// T' = 1 for both: both a and b collapse into 1.
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Final, `x.tag -> 1. x.tag -> keep.`)
	wantNoFact(t, res.Final, `x.tag -> a. x.tag -> b.`)
}

func TestModifySwapNoInterference(t *testing.T) {
	// Swapping two results through one T_P application: removals happen
	// before additions, so mod(a->b) and mod(b->a) yield {a, b} again.
	ob := mustBase(t, `x.m -> a / m -> b.`)
	p := mustProgram(t, `
r1: mod[x].m -> (a, b) <- x.m -> a.
r2: mod[x].m -> (b, a) <- x.m -> b.
`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Final, `x.m -> a. x.m -> b.`)
}

// --- Errors surfaced with context -------------------------------------------

func TestArithmeticErrorCarriesRule(t *testing.T) {
	ob := mustBase(t, `x.m -> henry.`)
	p := mustProgram(t, `badrule: ins[X].k -> V <- X.m -> M, V = M * 2.`)
	_, err := Run(ob, p, Options{})
	if err == nil || !strings.Contains(err.Error(), "badrule") {
		t.Errorf("err = %v, want mention of badrule", err)
	}
}

func TestDivisionByZeroSurfaces(t *testing.T) {
	ob := mustBase(t, `x.m -> 0.`)
	p := mustProgram(t, `r: ins[X].k -> V <- X.m -> M, V = 1 / M.`)
	_, err := Run(ob, p, Options{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestOverflowSurfacesNotPanics(t *testing.T) {
	ob := mustBase(t, `x.m -> 9223372036854775807.`)
	p := mustProgram(t, `r: ins[X].k -> V <- X.m -> M, V = M * M.`)
	_, err := Run(ob, p, Options{})
	if !errors.Is(err, term.ErrRatOverflow) {
		t.Errorf("err = %v, want ErrRatOverflow", err)
	}
	// -(-2⁶³) is not an int64 either, whether negated or subtracted from 0.
	ob = mustBase(t, `e.v -> -9223372036854775807.`)
	p = mustProgram(t, `r: mod[e].v -> (X, Z) <- e.v -> X, Y = X - 1, Z = 0 - Y.`)
	if _, err := Run(ob, p, Options{}); !errors.Is(err, term.ErrRatOverflow) {
		t.Errorf("0 - (-2⁶³): err = %v, want ErrRatOverflow", err)
	}
}

func TestIterationLimit(t *testing.T) {
	// A large recursive workload with a tiny budget trips the limiter.
	ob := mustBase(t, `
a.isa -> person / parents -> b.
b.isa -> person / parents -> c.
c.isa -> person / parents -> d.
d.isa -> person / parents -> e.
e.isa -> person.
`)
	p := mustProgram(t, `
base: ins[X].anc -> P <- X.isa -> person / parents -> P.
step: ins[X].anc -> P <- ins(X).isa -> person / anc -> A, A.isa -> person / parents -> P.
`)
	_, err := Run(ob, p, Options{MaxIterations: 2})
	var ile *IterationLimitError
	if !errors.As(err, &ile) {
		t.Fatalf("err = %v, want IterationLimitError", err)
	}
	if ile.Limit != 2 {
		t.Errorf("limit = %d", ile.Limit)
	}
}

// --- Copy semantics ----------------------------------------------------------

// TestCopyPropagatesWholeState: creating a version copies every method
// application of v*, including multi-result sets and argumented methods.
func TestCopyPropagatesWholeState(t *testing.T) {
	ob := mustBase(t, `
x.tags -> a / tags -> b.
x.rate@2025 -> 10 / rate@2026 -> 12.
`)
	p := mustProgram(t, `r: ins[x].touched -> yes <- x.tags -> a.`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Result, `
ins(x).tags -> a. ins(x).tags -> b.
ins(x).rate@2025 -> 10. ins(x).rate@2026 -> 12.
ins(x).touched -> yes.
`)
}

// TestChainedCopyUsesNearestVersion: a second-level update copies from the
// updated version, not from the original object.
func TestChainedCopyUsesNearestVersion(t *testing.T) {
	ob := mustBase(t, `x.n -> 1.`)
	p := mustProgram(t, `
r1: mod[x].n -> (1, 2) <- x.n -> 1.
r2: ins[mod(x)].seen -> yes <- mod(x).n -> 2.
`)
	res := mustRun(t, ob, p, Options{})
	wantFact(t, res.Result, `ins(mod(x)).n -> 2. ins(mod(x)).seen -> yes.`)
	wantNoFact(t, res.Result, `ins(mod(x)).n -> 1.`)
	wantFact(t, res.Final, `x.n -> 2. x.seen -> yes.`)
}

// TestSkippedLevelUsesVStar: updating del(mod(x)) when only x exists copies
// from x (v* resolution walks down the chain).
func TestSkippedLevelUsesVStar(t *testing.T) {
	ob := mustBase(t, `x.m -> a / k -> b.`)
	p := mustProgram(t, `r: del[mod(x)].m -> a <- x.m -> a.`)
	res := mustRun(t, ob, p, Options{})
	// No mod(x) exists; v* of mod(x) is x. The target del(mod(x)) copies
	// from x and drops m -> a.
	wantFact(t, res.Result, `del(mod(x)).k -> b.`)
	wantNoFact(t, res.Result, `del(mod(x)).m -> a.`)
	if res.Result.HasVersion(term.GV(term.Sym("x"), term.Mod)) {
		t.Errorf("intermediate mod(x) should not materialize")
	}
	wantFact(t, res.Final, `x.k -> b.`)
	wantNoFact(t, res.Final, `x.m -> a.`)
}

// --- Query edge cases ---------------------------------------------------------

func TestQueryWithNegationAndBuiltin(t *testing.T) {
	ob := mustBase(t, `
a.n -> 1. b.n -> 2. c.n -> 3. b.skip -> yes.
`)
	lits, err := parser.Query(`X.n -> N, N > 1, !X.skip -> yes.`, "q")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bs, err := Query(ob, lits)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(bs) != 1 || bs[0].String() != "N=3, X=c" {
		t.Errorf("bindings = %v", bs)
	}
}

func TestQueryGroundTruth(t *testing.T) {
	ob := mustBase(t, `a.n -> 1.`)
	lits, _ := parser.Query(`a.n -> 1.`, "q")
	bs, err := Query(ob, lits)
	if err != nil || len(bs) != 1 {
		t.Errorf("ground query: %v, %v", bs, err)
	}
	lits2, _ := parser.Query(`a.n -> 2.`, "q")
	bs2, err := Query(ob, lits2)
	if err != nil || len(bs2) != 0 {
		t.Errorf("false ground query: %v, %v", bs2, err)
	}
}

// --- Negated update-terms, remaining kinds -----------------------------------

func TestNegatedInsUpdateTerm(t *testing.T) {
	ob := mustBase(t, `a.isa -> item. b.isa -> item / special -> yes.`)
	p := mustProgram(t, `
r1: ins[X].flag -> on <- X.isa -> item / special -> yes.
r2: ins[ins(X)].note -> plain <- ins(X).isa -> item, !ins[X].flag -> on.
`)
	// r2 must not apply to b (its ins version got the flag); but ins(a)
	// does not exist (r1 never fired for a), so r2 has no candidate at all.
	res := mustRun(t, ob, p, Options{})
	wantNoFact(t, res.Result, `ins(ins(b)).note -> plain.`)
	wantNoFact(t, res.Result, `ins(ins(a)).note -> plain.`)
}

func TestPositiveDelUpdateTermEnumerates(t *testing.T) {
	ob := mustBase(t, `
x.m -> a / m -> b / keep -> yes.
y.m -> c / keep -> yes.
`)
	p := mustProgram(t, `
r1: del[X].m -> R <- X.m -> R, X.keep -> yes, R != c.
r2: ins[del(X)].logged -> R <- del[X].m -> R.
`)
	res := mustRun(t, ob, p, Options{})
	// x lost both a and b; both deletions are observable via the positive
	// del update-term; y was untouched.
	wantFact(t, res.Result, `ins(del(x)).logged -> a. ins(del(x)).logged -> b.`)
	if res.Result.HasVersion(term.GV(term.Sym("y"), term.Del)) {
		t.Errorf("y should have no del version")
	}
	wantFact(t, res.Final, `x.keep -> yes. x.logged -> a. x.logged -> b. y.m -> c.`)
}

// --- Determinism ---------------------------------------------------------------

func TestRunDeterministic(t *testing.T) {
	progSrc := `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`
	baseSrc := `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
ann.isa -> empl / boss -> phil / sal -> 4500.
`
	var first *Result
	for i := 0; i < 5; i++ {
		res := mustRun(t, mustBase(t, baseSrc), mustProgram(t, progSrc), Options{})
		if first == nil {
			first = res
			continue
		}
		if !res.Result.Equal(first.Result) || !res.Final.Equal(first.Final) {
			t.Fatalf("run %d differs", i)
		}
	}
}
