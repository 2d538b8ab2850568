package eval

import (
	"testing"

	"verlog/internal/parser"
	"verlog/internal/term"
)

// queryShapesBase and queryShapesProgram give the query differential test
// something of every kind to find: methods with arguments, versions of all
// three update kinds, an object that is deleted and one that is created.
const queryShapesBase = fuzzBase + `
e1.rate@2020 -> 5 / rate@2021 -> 6.
e2.rate@2020 -> 7.
m1.rate@2021 -> 6.
`

const queryShapesProgram = `
raise: mod[E].sal -> (S, S2) <- E.isa -> emp, E.sal -> S, S2 = S + 100.
drop:  del[mod(E)].dept -> D <- mod(E).dept -> D, D.loc -> south.
note:  ins[M].heads -> D <- M.isa -> mgr, M.dept -> D.
fire:  del[mod(e2)].* <- mod(e2).isa -> emp.
hire:  ins[e9].isa -> emp <- e1.isa -> emp.
`

// TestQueryCompiledVsInterpreted puts one query of every shape the compiler
// knows to the compiled Query and to the interpreter, on every kind of base
// (checkQueries), and checks that the shapes named after an access really
// compile to it.
func TestQueryCompiledVsInterpreted(t *testing.T) {
	ob := mustBase(t, queryShapesBase)
	res, err := Run(ob, mustProgram(t, queryShapesProgram), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query string
		acc   access // of the first step, when non-zero
	}{
		{query: `e1.sal -> S.`}, // accessLookup is the zero access
		{query: `E.boss -> m1, E.sal -> S.`, acc: accessProbeResult},    // result constant, then a lookup
		{query: `E.rate@2020 -> R.`, acc: accessProbeArg},               // constant first argument
		{query: `E.rate@Y -> 6.`, acc: accessProbeResult},               // binding argument under a probe
		{query: `E.rate@Y -> R, R > 5.`, acc: accessScan},               // argument scan and a built-in
		{query: `E.isa -> emp, !E.boss -> m1.`, acc: accessProbeResult}, // negation
		{query: `E.isa -> emp, !E.rate@2020 -> 5.`},
		{query: `E.sal -> S, M.sal -> T, E.boss -> M, D = T - S, D > 3500.`},
		{query: `mod(E).sal -> S.`, acc: accessScan}, // deep versions scan the base
		{query: `E.boss -> M, mod(E).sal -> S, mod(M).sal -> T.`},
		{query: `any(E).sal -> S, S > 2000.`, acc: accessAny},
		{query: `any(e1).sal -> S.`},
		{query: `E.isa -> emp, !any(E).heads -> d1.`},
		{query: `mod[E].sal -> (S, T).`},
		{query: `mod[e1].sal -> (S, T).`},
		{query: `del[E].dept -> D.`},
		{query: `del[mod(E)].dept -> D.`},
		{query: `del[mod(e2)].isa -> C.`},
		{query: `del[mod(e3)].dept -> D.`},
		{query: `ins[M].heads -> D.`},
		{query: `E.isa -> emp, !mod[E].sal -> (1000, 1100).`},
		{query: `E.isa -> emp, E.dept -> D, !del[mod(E)].dept -> D.`},
		{query: `E.isa -> emp, !ins[E].isa -> emp.`},
		{query: `E.sal -> S, S > north.`}, // a type error, in both
		{query: `E.loc -> L, E.isa -> C.`},
		{query: `e9.isa -> C.`},
	}
	for _, c := range cases {
		body, err := parser.Query(c.query, "q")
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if c.acc != accessLookup {
			rule := term.Rule{Body: body}
			est := indexedCost(res.Result)
			steps, _, err := compileSteps(&ruleCompiler{slots: map[term.Var]int{}}, rule, greedyOrder(rule, est, -1), -1, est)
			if err != nil {
				t.Fatalf("%s: %v", c.query, err)
			}
			if steps[0].acc != c.acc {
				t.Errorf("%s: first step runs as %s, want %s", c.query, steps[0].acc.name(), c.acc.name())
			}
		}
		if err := checkQueries(ob, res, body); err != nil {
			t.Errorf("%s: %v", c.query, err)
		}
	}
}

// TestQueryFallsBackToInterpreter: a body the compiler rejects is answered —
// here with the interpreter's error — by the fallback, as in Run.
func TestQueryFallsBackToInterpreter(t *testing.T) {
	ob := mustBase(t, fuzzBase)
	body, err := parser.Query(`E.isa -> emp, !E.boss -> B.`, "q")
	if err != nil {
		t.Fatal(err)
	}
	_, errC := Query(ob, body)
	_, errI := QueryInterpreted(ob, body)
	if errC == nil || errI == nil || errC.Error() != errI.Error() {
		t.Errorf("unbound variable under negation: Query says %v, the interpreter %v", errC, errI)
	}
}
