package eval

import (
	"testing"

	"verlog/internal/parser"
	"verlog/internal/term"
)

// planOf returns the first rule of the source and the order the source-order
// planner evaluates its body in.
func planOf(t *testing.T, ruleSrc string) (term.Rule, []int) {
	t.Helper()
	p, err := parser.Program(ruleSrc, "plan.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r := p.Rules[0]
	return r, greedyOrder(r, staticCost, -1)
}

// TestPlanNegationAfterBinder: a negated literal written first must still
// be evaluated after the positive literal that binds its variables.
func TestPlanNegationAfterBinder(t *testing.T) {
	r, pl := planOf(t, `r: ins[X].m -> a <- !X.skip -> yes, X.t -> 1.`)
	// Order must put body[1] (the binder) before body[0] (the negation).
	pos := map[int]int{}
	for where, li := range pl {
		pos[li] = where
	}
	if pos[1] > pos[0] {
		t.Errorf("negation evaluated before its binder: order %v for %s", pl, r)
	}
}

// TestPlanComparisonAfterBinding: S > 4500 runs after S is bound.
func TestPlanComparisonAfterBinding(t *testing.T) {
	_, pl := planOf(t, `r: ins[X].f -> y <- S > 4500, X.sal -> S.`)
	pos := map[int]int{}
	for where, li := range pl {
		pos[li] = where
	}
	if pos[1] > pos[0] {
		t.Errorf("comparison before binder: %v", pl)
	}
}

// TestPlanEqualityChain: equalities ordered by data flow: A bound by atom,
// then B = A + 1, then C = B * 2.
func TestPlanEqualityChain(t *testing.T) {
	_, pl := planOf(t, `r: ins[X].m -> C <- C = B * 2, B = A + 1, X.t -> A.`)
	pos := map[int]int{}
	for where, li := range pl {
		pos[li] = where
	}
	if !(pos[2] < pos[1] && pos[1] < pos[0]) {
		t.Errorf("equality chain misordered: %v", pl)
	}
}

// TestPlanBehavioral: the planner's ordering choices do not change results
// — the same rule in different literal orders computes the same updates.
func TestPlanBehavioral(t *testing.T) {
	base := `
x.t -> 1. x.skip -> yes.
y.t -> 1.
`
	variants := []string{
		`r: ins[X].m -> a <- X.t -> 1, !X.skip -> yes.`,
		`r: ins[X].m -> a <- !X.skip -> yes, X.t -> 1.`,
	}
	for _, src := range variants {
		res := mustRun(t, mustBase(t, base), mustProgram(t, src), Options{})
		wantFact(t, res.Final, `y.m -> a.`)
		wantNoFact(t, res.Final, `x.m -> a.`)
	}
}

// TestPlanDeltaPositions: only version-terms over versions and positive
// ins-update-terms are delta-seedable.
func TestPlanDeltaPositions(t *testing.T) {
	r, _ := planOf(t, `
r: ins[X].m -> a <- X.t -> 1, ins(X).k -> b, ins[X].m2 -> c, mod[X].s -> (A, B), !ins(X).z -> q.`)
	// Body literals: 0: X.t->1 (plain object, not seedable)
	//                1: ins(X).k->b (seedable)
	//                2: ins[X].m2->c (seedable)
	//                3: mod[X].s->(A,B) (frozen in-stratum, not seedable)
	//                4: !ins(X).z->q (negated, not seedable)
	want := map[int]bool{1: true, 2: true}
	for li, l := range r.Body {
		if deltaSeedable(l) != want[li] {
			t.Errorf("literal %d (%s) seedable = %v, want %v", li, l, deltaSeedable(l), want[li])
		}
	}
}

// TestStatsPlannerOrdersBySelectivity: with statistics, the most selective
// generator (fewest indexed candidates) runs first.
func TestStatsPlannerOrdersBySelectivity(t *testing.T) {
	ob := mustBase(t, `
a.isa -> item / val -> 1.
b.isa -> item / val -> 2.
c.isa -> item / val -> 3.
d.isa -> item / val -> 4 / rare -> yes.
`)
	p, err := parser.Program(`r: ins[X].hit -> yes <- X.isa -> item, X.rare -> yes, X.val -> V.`, "p")
	if err != nil {
		t.Fatal(err)
	}
	pl := greedyOrder(p.Rules[0], statsCost(ob), -1)
	// Literal 1 (rare: 1 candidate) must precede literal 0 (isa: 4).
	pos := map[int]int{}
	for where, li := range pl {
		pos[li] = where
	}
	if pos[1] > pos[0] {
		t.Errorf("selective literal not first: order %v", pl)
	}
}

// TestStaticPlannerOptionAgrees: both planners compute the same fixpoint —
// the paper's. The source-order plans reach the run the way cached plans do.
func TestStaticPlannerOptionAgrees(t *testing.T) {
	ob := mustBase(t, enterpriseBase)
	p := mustProgram(t, enterpriseProgram)
	static, err := Compile(ob, p, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Plans: static}} {
		res, err := runsLikeSpec(ob, p, opts)
		if err != nil {
			t.Errorf("plans %v: %v", opts.Plans != nil, err)
			continue
		}
		if want := map[bool]string{false: "compiled", true: "cached"}[opts.Plans != nil]; res.Plan != want {
			t.Errorf("plans %v: the run reports Plan = %q, want %q", opts.Plans != nil, res.Plan, want)
		}
	}
}

// TestPlanBoundBasePreferred: once X is bound, literals on X's versions are
// preferred over opening a second unbound scan.
func TestPlanBoundBasePreferred(t *testing.T) {
	_, pl := planOf(t, `r: ins[X].m -> a <- Y.other -> X, X.t -> 1.`)
	// Literal 0 binds X and Y; literal 1 then has a bound base. Both
	// orders are correct; the planner must simply produce a permutation.
	seen := map[int]bool{}
	for _, li := range pl {
		seen[li] = true
	}
	if len(seen) != 2 {
		t.Errorf("order %v is not a permutation", pl)
	}
}
