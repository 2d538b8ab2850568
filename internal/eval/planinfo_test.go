package eval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verlog/internal/parser"
)

func TestPlanLiterals(t *testing.T) {
	t.Run("order and kinds", func(t *testing.T) {
		ob := mustBase(t, `a.isa -> thing. b.isa -> thing. c.isa -> thing. c.rare -> yes.`)
		p := mustProgram(t, `
find: ins[X].hit -> R <- X.isa -> thing, X.rare -> R, !X.skip -> yes, R = yes.
`)
		lps := PlanLiterals(ob, p.Rules[0])
		if len(lps) != 4 {
			t.Fatalf("PlanLiterals = %+v", lps)
		}
		// The binding equality runs immediately; then the rare generator with
		// its index estimate; the isa scan follows bound (0 rows); the negation
		// runs once X is bound.
		if lps[0].Kind != KindFilter || lps[0].Source != 3 {
			t.Errorf("first = %+v", lps[0])
		}
		if lps[1].Kind != KindGenerator || !strings.Contains(lps[1].Literal, "rare") || lps[1].EstRows != 2 || lps[1].Source != 1 {
			t.Errorf("second = %+v", lps[1])
		}
		kinds := map[string]int{}
		for _, lp := range lps {
			kinds[lp.Kind]++
		}
		if kinds[KindGenerator] != 2 || kinds[KindNegation] != 1 || kinds[KindFilter] != 1 {
			t.Errorf("kinds = %v", kinds)
		}
		// Nil base selects the static planner: generators in source order
		// after the ready equality, isa first.
		static := PlanLiterals(nil, p.Rules[0])
		if !strings.Contains(static[1].Literal, "isa") || static[1].Source != 0 {
			t.Errorf("static second = %+v", static[1])
		}
	})

	t.Run("statistics first", func(t *testing.T) {
		ob := mustBase(t, `
a.isa -> item / val -> 1.
b.isa -> item / val -> 2.
c.isa -> item / val -> 3 / rare -> yes.
`)
		p := mustProgram(t, `
find: ins[X].hit -> yes <- X.isa -> item, X.rare -> yes, X.val -> V.
`)
		// Statistics: the rare literal (1 candidate) runs first, estimated at
		// 1 + its index count 1.
		lps := PlanLiterals(ob, p.Rules[0])
		if len(lps) != 3 || !strings.Contains(lps[0].Literal, "rare") || lps[0].EstRows != 2 {
			t.Errorf("statistics plan = %+v", lps)
		}
		// Static: source order, isa first.
		if static := PlanLiterals(nil, p.Rules[0]); !strings.Contains(static[0].Literal, "isa") {
			t.Errorf("static plan starts with %+v", static[0])
		}
	})

	t.Run("delta markers", func(t *testing.T) {
		ob := mustBase(t, `x.isa -> person / parents -> y. y.isa -> person.`)
		p := mustProgram(t, `
step: ins[X].anc -> P <- ins(X).isa -> person / anc -> A, A.isa -> person / parents -> P.
`)
		var deltas []string
		for _, lp := range PlanLiterals(ob, p.Rules[0]) {
			if lp.Delta {
				deltas = append(deltas, lp.Literal)
				if lp.DeltaRows == 0 {
					t.Errorf("delta-seedable %s has no delta estimate", lp.Literal)
				}
			}
		}
		if len(deltas) != 2 || !strings.HasPrefix(deltas[0], "ins(X)") || !strings.HasPrefix(deltas[1], "ins(X)") {
			t.Errorf("delta positions = %v, want the two ins(X) literals", deltas)
		}
	})
}

// TestPlanLiteralsAgreesWithCompiler holds the plan reporter to the plan a
// run executes: PlanLiterals compiles each literal for its access, but plans
// the join order on its own, so for every rule of the corpus and of the
// shipped examples, on its base, the literal it reports at position i must
// have the access of compileRule's step i — the same order from the same
// estimator. The case list reaches every access path.
func TestPlanLiteralsAgreesWithCompiler(t *testing.T) {
	// One rule per access path, the ones the corpus lacks among them.
	cases := append(corpus(t), corpusCase{name: "access paths", base: `a.isa -> item / rate@1 -> 10. b.isa -> item / rate@2 -> 20.`, prog: `
anyscan: ins[X].h -> y <- any(X).isa -> item.
probearg: ins[X].h -> R <- X.rate@1 -> R.
proberesult: ins[X].h -> y <- X.isa -> item.
bound: ins[X].g -> R <- ins(X).h -> R, X.isa -> item, del[X].isa -> item, mod[X].rate@A -> (R, S).
delscan: ins[X].g -> y <- del[X].isa -> item.
modscan: ins[X].g -> S <- mod[X].rate@A -> (R, S).
`})
	progs, err := filepath.Glob("../../examples/*/update.vlg")
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs found (%v)", err)
	}
	for _, prog := range progs {
		src, err := os.ReadFile(prog)
		if err != nil {
			t.Fatal(err)
		}
		base, err := os.ReadFile(filepath.Join(filepath.Dir(prog), "base.vlg"))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, corpusCase{name: prog, base: string(base), prog: string(src)})
	}
	seen := map[string]int{}
	for _, c := range cases {
		p, err := parser.Program(c.prog, c.name)
		if err != nil {
			continue // a rejection case of the golden corpus
		}
		ob := c.ob
		if ob == nil {
			if ob, err = parser.ObjectBase(c.base, c.name); err != nil {
				t.Fatalf("%s: base: %v", c.name, err)
			}
		}
		for ri, r := range p.Rules {
			cr, err := compileRule(r, indexedCost(ob), nil)
			if err != nil {
				continue // an unsafe rule: the compiler refuses it, nothing to agree on
			}
			lps := PlanLiterals(ob, r)
			if len(lps) != len(cr.steps) {
				t.Fatalf("%s, rule %s: %d literals reported, %d steps compiled", c.name, r.Label(ri), len(lps), len(cr.steps))
			}
			for i, lp := range lps {
				want := ""
				if lp.Kind == KindGenerator {
					want = cr.steps[i].acc.name()
					seen[want]++
				}
				if lp.Access != want {
					t.Errorf("%s, rule %s, %s: reported access %q, compiled %q", c.name, r.Label(ri), lp.Literal, lp.Access, want)
				}
			}
		}
	}
	for _, acc := range []string{AccessLookup, AccessProbeResult, AccessProbeArg, AccessScan, AccessAnyScan} {
		if seen[acc] == 0 {
			t.Errorf("no literal compiled to %s: the agreement is not checked there (seen %v)", acc, seen)
		}
	}
}
