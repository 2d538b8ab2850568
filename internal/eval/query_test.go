package eval

import (
	"errors"
	"strings"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/safety"
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

// TestQueryEngineVsSpec puts one query of every shape the compiler
// knows to the compiled Query and to the spec's enumerator (internal/spec,
// which reads the truth definitions of Section 3 off a plain set of facts),
// on every kind of base
// (checkQueries), and checks that the shapes named after an access really
// compile to it.
func TestQueryEngineVsSpec(t *testing.T) {
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
			steps, _, err := compileSteps(&ruleCompiler{slots: map[term.Var]int{}}, rule, greedyOrder(rule, indexedCost(res.Result), -1), -1)
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

// TestCompileRejectsWhatSafetyRejects walks every rejection compile.go can
// produce on input the parser lets through: a variable still unbound where a
// ground value is required. Each is a safety violation — package safety
// rejects the same rule — and is refused, not handed to another evaluator:
// Run and Query return the *CompileError, naming the rule (a query goes by
// "query"); the spec refuses it as unsafe too.
func TestCompileRejectsWhatSafetyRejects(t *testing.T) {
	ob := mustBase(t, fuzzBase)
	cases := []struct {
		name, rule, want string
	}{
		{"unbound head result", `r: ins[X].m -> Y <- X.isa -> emp.`, "variable Y unbound where a ground value is required"},
		{"unbound head argument", `r: ins[X].m@A -> 1 <- X.isa -> emp.`, "variable A unbound where a ground value is required"},
		{"unbound head base", `r: ins[X].m -> 1 <- e1.isa -> emp.`, "variable X unbound where a ground value is required"},
		{"unbound new result of a modify", `r: mod[X].sal -> (S, T) <- X.sal -> S.`, "variable T unbound where a ground value is required"},
		{"unbound variable in an expression", `r: ins[X].m -> 1 <- X.isa -> emp, S > 5.`, "variable S unbound in expression"},
		{"unbound variable in a binding equality", `r: ins[X].m -> T <- X.isa -> emp, T = S + 1.`, "variable S unbound in expression"},
		{"unbound variable under negation", `r: ins[X].m -> 1 <- X.isa -> emp, !X.boss -> B.`, "variable B unbound where a ground value is required"},
		{"unbound variable under a negated update-term", `r: ins[X].m -> 1 <- X.isa -> emp, !mod[X].sal -> (S, 7).`, "variable S unbound where a ground value is required"},
		{"unbound variable under a negated built-in", `r: ins[X].m -> 1 <- X.isa -> emp, !S = 5.`, "variable S unbound in expression"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := mustProgram(t, c.rule)
			if safety.Program(p) == nil {
				t.Errorf("package safety accepts %s", c.rule)
			}
			res, err, diff := sameAsSpec(ob, p, Options{})
			var ce *CompileError
			if res != nil || !errors.As(err, &ce) || ce.Rule != "r" || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Run(%s) = %v, %v; want a CompileError for rule r saying %q", c.rule, res, err, c.want)
			}
			if diff != nil {
				t.Error(diff)
			}
			// The body as a query: refused the same way when the body is where
			// the variable is missing, answered when only the head was at fault.
			_, qerr := Query(ob, p.Rules[0].Body)
			if bodyAtFault := !strings.Contains(c.name, "head") && !strings.Contains(c.name, "new result"); bodyAtFault {
				if !errors.As(qerr, &ce) || ce.Rule != "query" || !strings.Contains(qerr.Error(), c.want) {
					t.Errorf("Query(body of %s) = %v; want a CompileError for the query saying %q", c.rule, qerr, c.want)
				}
			} else if qerr != nil {
				t.Errorf("Query(body of %s) = %v", c.rule, qerr)
			}
			if err := sameQueryAsSpec(ob, p.Rules[0].Body); err != nil {
				t.Error(err)
			}
		})
	}
}
