package bench

import (
	"errors"
	"fmt"

	"verlog/internal/baseline"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/strata"
	"verlog/internal/term"
	"verlog/internal/workload"
)

func mustProgram(src string) *term.Program {
	p, err := parser.Program(src, "bench.vlg")
	if err != nil {
		panic(err)
	}
	return p
}

func countBindings(b *objectbase.Base, query string) int {
	lits, err := parser.Query(query, "q")
	if err != nil {
		panic(err)
	}
	bs, err := eval.Query(b, lits)
	if err != nil {
		panic(err)
	}
	return len(bs)
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// --- E1: Section 2.1 salary raise, scaling ------------------------------

func runE1() (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "salary raise (Section 2.1)",
		Note:  "fired = n exactly (each employee raised once; versions prevent update loops); time (BenchmarkE1SalaryRaise) grows linearly in n",
		Header: []string{
			"employees", "input_facts", "fired", "iterations", "raised_ok",
		},
	}
	p := mustProgram(workload.SalaryRaiseProgram)
	for _, n := range []int{100, 1000, 10000} {
		ob := workload.EnterpriseSpec{Employees: n, Seed: 42}.ObjectBase()
		inputFacts := ob.Size()
		res, err := eval.Run(ob, p, eval.Options{})
		if err != nil {
			return nil, err
		}
		raised := countBindings(res.Result, `mod(E).isa -> empl.`)
		t.AddRow(n, inputFacts, res.Fired, sum(res.Iterations), pass(raised == n && res.Fired == n))
	}
	return t, nil
}

// --- E2: Figure 2 enterprise update --------------------------------------

func runE2() (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "enterprise update (Figure 2)",
		Note:  "row 'paper' reproduces Figure 2 exactly (phil hpe@4600, bob fired); scaled rows agree with the hand-coded imperative updater on who survives and who is high-paid",
		Header: []string{
			"workload", "employees", "strata", "fired", "survivors", "fired_empl", "hpe", "matches_direct",
		},
	}
	p := mustProgram(workload.EnterpriseProgram)

	// The exact paper instance.
	paperOb, err := parser.ObjectBase(`
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`, "paper.vlg")
	if err != nil {
		return nil, err
	}
	res, err := eval.Run(paperOb, p, eval.Options{})
	if err != nil {
		return nil, err
	}
	philOK := res.Final.Has(term.NewFact(term.GVID{Object: term.Sym("phil")}, "sal", term.Int(4600))) &&
		res.Final.Has(term.NewFact(term.GVID{Object: term.Sym("phil")}, "isa", term.Sym("hpe")))
	bobGone := len(res.Final.VersionsOf(term.Sym("bob"))) == 0
	firedEmpl := 0
	if bobGone {
		firedEmpl = 1
	}
	t.AddRow("paper", 2, res.Assignment.NumStrata(), res.Fired,
		countBindings(res.Final, `E.isa -> empl.`), firedEmpl, countBindings(res.Final, `E.isa -> hpe.`),
		pass(philOK && bobGone))

	for _, n := range []int{100, 1000, 5000} {
		emps := workload.EnterpriseSpec{Employees: n, Seed: 7}.Generate()
		res, err := eval.Run(workload.EmployeesToBase(emps), p, eval.Options{})
		if err != nil {
			return nil, err
		}
		matches, survivors, firedEmpl, hpe := compareWithDirect(res.Final, emps)
		t.AddRow(fmt.Sprintf("synthetic n=%d", n), n, res.Assignment.NumStrata(), res.Fired,
			survivors, firedEmpl, hpe, pass(matches))
	}
	return t, nil
}

// compareWithDirect checks the versioned result against the imperative
// updater: same survivor set and same high-paid set.
func compareWithDirect(final *objectbase.Base, emps []workload.Employee) (matches bool, survivors, fired, hpe int) {
	direct := baseline.FromWorkload(emps)
	fired = baseline.DirectEnterprise(direct)
	matches = true
	for _, e := range direct {
		o := term.Sym(e.Name)
		alive := final.Has(term.NewFact(term.GVID{Object: o}, "isa", term.Sym("empl")))
		high := final.Has(term.NewFact(term.GVID{Object: o}, "isa", term.Sym("hpe")))
		if alive != !e.Fired || high != e.HighPay {
			matches = false
		}
		if alive {
			survivors++
		}
		if high {
			hpe++
		}
	}
	return matches, survivors, fired, hpe
}

// --- E3: hypothetical reasoning ("richest") ------------------------------

const hypotheticalProgram = `
rule1: mod[E].sal -> (S, S') <- E.sal -> S / factor -> F, S' = S * F.
rule2: mod[mod(E)].sal -> (S', S) <- mod(E).sal -> S', E.sal -> S.
rule3: ins[mod(mod(peter))].richest -> no <-
       mod(E).sal -> SE, mod(peter).sal -> SP, SE > SP.
rule4: ins[ins(mod(mod(peter)))].richest -> yes <-
       !ins(mod(mod(peter))).richest -> no.
`

func runE3() (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "hypothetical reasoning (Section 2.3)",
		Note:  "the hypothetical raise is performed and revised; ob' keeps original salaries and carries only the verdict; 4 strata as Section 4 derives",
		Header: []string{
			"employees", "strata", "verdict", "verdict_ok", "salaries_unchanged",
		},
	}
	p := mustProgram(hypotheticalProgram)
	for _, n := range []int{10, 100, 1000} {
		ob, expectYes := hypotheticalBase(n)
		res, err := eval.Run(ob, p, eval.Options{})
		if err != nil {
			return nil, err
		}
		peter := term.GVID{Object: term.Sym("peter")}
		yes := res.Final.Has(term.Fact{V: peter, Method: "richest", Result: term.Sym("yes")})
		no := res.Final.Has(term.Fact{V: peter, Method: "richest", Result: term.Sym("no")})
		verdict := "yes"
		if no {
			verdict = "no"
		}
		unchanged := res.Final.Has(term.Fact{V: peter, Method: "sal", Result: term.Int(1000)})
		t.AddRow(n, res.Assignment.NumStrata(), verdict,
			pass(yes == expectYes && no == !expectYes), pass(unchanged))
	}
	return t, nil
}

// hypotheticalBase builds peter (sal 1000, factor 3) and n-1 colleagues
// with factor 2 and salaries of at most 1399, so that no colleague's doubled
// salary tops peter's tripled 3000 and the verdict is yes; for every
// n >= 100 it adds one spoiler (sal 2000, factor 2 = 4000 > 3000), and the
// verdict is no.
func hypotheticalBase(n int) (*objectbase.Base, bool) {
	b := objectbase.New()
	add := func(name string, sal int64, factor string) {
		o := term.Sym(name)
		v := term.GVID{Object: o}
		b.Insert(term.NewFact(v, "isa", term.Sym("empl")))
		b.Insert(term.NewFact(v, "sal", term.Int(sal)))
		f, err := term.ParseRat(factor)
		if err != nil {
			panic(err)
		}
		b.Insert(term.NewFact(v, "factor", term.FromRat(f)))
		b.EnsureObject(o)
	}
	add("peter", 1000, "3")
	for i := 0; i < n-1; i++ {
		add(fmt.Sprintf("c%d", i), 1000+int64(i%400), "2")
	}
	expectYes := true
	if n >= 100 {
		add("spoiler", 2000, "2")
		expectYes = false
	}
	return b, expectYes
}

// --- E4: recursive ancestors ---------------------------------------------

func runE4() (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "recursive ancestors (Section 2.3)",
		Note:  "closure size matches the analytic count; single stratum; recursion through positive ins-terms",
		Header: []string{
			"generations", "branching", "persons", "anc_pairs", "expected", "iterations", "check",
		},
	}
	p := mustProgram(workload.AncestorsProgram)
	for _, spec := range []workload.GenealogySpec{
		{Generations: 4, Branching: 2},
		{Generations: 6, Branching: 2},
		{Generations: 8, Branching: 2},
		{Generations: 5, Branching: 3},
	} {
		res, err := eval.Run(spec.ObjectBase(), p, eval.Options{})
		if err != nil {
			return nil, err
		}
		pairs := countBindings(res.Final, `X.anc -> A.`)
		t.AddRow(spec.Generations, spec.Branching, spec.Persons(), pairs, spec.AncestorPairs(),
			sum(res.Iterations), pass(pairs == spec.AncestorPairs()))
	}
	return t, nil
}

// --- E5: Figure 1 version chains ------------------------------------------

func runE5() (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "version chains (Figure 1)",
		Note:  "k groups yield VID depth k and counter k; one stratum per group; cost (BenchmarkE5VersionChains) grows ~linearly in k (each group copies every item's state once)",
		Header: []string{
			"k_groups", "items", "strata", "deepest_vid", "counter", "check",
		},
	}
	const items = 200
	for _, k := range []int{1, 2, 4, 8, 12} {
		res, err := eval.Run(workload.Items(items), mustProgram(workload.ChainProgram(k)), eval.Options{})
		if err != nil {
			return nil, err
		}
		deepest := 0
		for _, v := range res.Result.VersionsOf(term.Sym("item0")) {
			deepest = max(deepest, v.Path.Len())
		}
		counter := -1
		lits, _ := parser.Query(`item0.counter -> C.`, "q")
		if bs, err := eval.Query(res.Final, lits); err == nil && len(bs) == 1 {
			if c := bs[0][term.Var("C")]; c.IsNum() && c.Rat().IsInt() {
				counter = int(c.Rat().Int())
			}
		}
		t.AddRow(k, items, res.Assignment.NumStrata(), deepest, counter,
			pass(deepest == k && counter == k && res.Assignment.NumStrata() == k))
	}
	return t, nil
}

// --- E6: stratification cost -----------------------------------------------

func runE6() (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "stratification cost (Section 4)",
		Note:  "edge construction is O(rules^2 * VID depth); layered programs stratify into maxDepth strata",
		Header: []string{
			"rules", "max_depth", "strata", "edges",
		},
	}
	for _, n := range []int{64, 256, 1024} {
		a, err := strata.Stratify(mustProgram(workload.LayeredProgram(n, 4)))
		if err != nil {
			return nil, err
		}
		t.AddRow(n, 4, a.NumStrata(), len(a.Edges))
	}
	return t, nil
}

// --- E7: version-linearity check -------------------------------------------

func runE7() (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "version-linearity (Section 5)",
		Note:  "the run-time check is cheap (one subterm comparison per new version) and rejects the paper's mod/del conflict example",
		Header: []string{
			"program", "items", "outcome", "check",
		},
	}
	// Linear: the k=6 chain on 500 items — accepted.
	_, err := eval.Run(workload.Items(500), mustProgram(workload.ChainProgram(6)), eval.Options{})
	t.AddRow("linear chain k=6", 500, outcomeOf(err), pass(err == nil))
	if err != nil {
		return nil, err
	}
	// Branching: the Section 5 example — mod and del on the same object.
	p := mustProgram(`
ra: mod[X].m -> (a, b) <- X.isa -> item.
rb: del[X].m -> a <- X.isa -> item.
`)
	ob, err := parser.ObjectBase(`x.isa -> item / m -> a.`, "e7.vlg")
	if err != nil {
		return nil, err
	}
	_, err = eval.Run(ob, p, eval.Options{})
	var le *eval.LinearityError
	t.AddRow("mod/del branch (paper sect. 5)", 1, outcomeOf(err), pass(errors.As(err, &le)))
	return t, nil
}

func outcomeOf(err error) string {
	if err == nil {
		return "accepted"
	}
	var le *eval.LinearityError
	if errors.As(err, &le) {
		return "rejected (not version-linear)"
	}
	return "error: " + err.Error()
}

// --- E8: frame-problem overhead --------------------------------------------

func runE8() (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "frame-problem overhead (Section 3, footnote 4)",
		Note:  "copying only updated states keeps the frame overhead proportional to the touched objects' state volume (copied_facts): sweep 1 varies the touched fraction, sweep 2 the touched objects' payload, sweep 3 grows the base at a fixed touched count — copied_facts stays constant there",
		Header: []string{
			"sweep", "objects", "payload_facts", "touched", "copied_facts",
		},
	}
	const methods = 8
	// Sweep 1: the touched fraction of a fixed base.
	for _, pct := range []int{1, 5, 10, 25, 50, 100} {
		if err := e8Row(t, "fraction", 2000, methods, workload.TouchProgram(pct)); err != nil {
			return nil, err
		}
	}
	// Sweep 2, at 10 % touched: the copy pays for the touched objects' own
	// state size.
	for _, m := range []int{8, 32, 128} {
		if err := e8Row(t, "payload", 1000, m, workload.TouchProgram(10)); err != nil {
			return nil, err
		}
	}
	// Sweep 3, at a fixed touched count: copied_facts must stay constant;
	// only the (index-driven) matching grows with the base.
	for _, n := range []int{1000, 4000, 16000} {
		if err := e8Row(t, "base-size", n, methods, workload.TouchFirstProgram(100)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// e8Row runs prog on a base of objects objects with methods payload facts
// each, and adds the row: how many objects the run touched and how many
// facts their new states hold.
func e8Row(t *Table, sweep string, objects, methods int, prog string) error {
	ob := workload.TouchedSpec{Objects: objects, Methods: methods}.ObjectBase()
	res, err := eval.Run(ob, mustProgram(prog), eval.Options{})
	if err != nil {
		return err
	}
	touched, copied := 0, 0
	for _, v := range res.Result.Versions() {
		if v.Path.Len() == 1 {
			touched++
			copied += res.Result.StateOf(v).Size()
		}
	}
	t.AddRow(sweep, objects, methods, touched, copied)
	return nil
}

// --- E9: control — versions vs inflationary vs manual ordering --------------

func runE9() (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "update control (Section 2.4)",
		Note:  "verlog derives the raise-then-fire order from VIDs; flat inflationary diverges on the raise rule; manual groups work only in the right order (bob at 4100 must survive at 4510)",
		Header: []string{
			"engine", "converged", "bob_fate", "bob_sal", "phil_sal", "matches_intended",
		},
	}
	base := `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4100.
`
	flatProg := mustProgram(`
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[E].* <- E.isa -> empl / boss -> B / sal -> SE, B.isa -> empl / sal -> SB, SE > SB.
rule4: ins[E].isa -> hpe <- E.isa -> empl / sal -> S, S > 4500.
`)
	ob, err := parser.ObjectBase(base, "e9.vlg")
	if err != nil {
		return nil, err
	}

	// Intended semantics: verlog.
	res, err := eval.Run(ob, mustProgram(workload.EnterpriseProgram), eval.Options{})
	if err != nil {
		return nil, err
	}
	fate, sal := bobFate(res.Final)
	t.AddRow("verlog (versioned)", "yes", fate, sal, philSal(res.Final), pass(fate == "kept" && sal == "4510"))

	// Flat inflationary: diverges.
	fr, err := baseline.Inflationary{MaxIterations: 12}.Run(ob, flatProg)
	if err != nil {
		return nil, err
	}
	fate, sal = bobFate(fr.Final)
	t.AddRow("flat inflationary", yesNo(fr.Converged), fate, sal, philSal(fr.Final), pass(!fr.Converged))

	// Flat sequential, right and wrong order.
	for _, c := range []struct {
		name   string
		groups [][]int
		want   string
	}{
		{"flat sequential raise->fire", [][]int{{0, 1}, {2}, {3}}, "kept"},
		{"flat sequential fire->raise", [][]int{{2}, {0, 1}, {3}}, "fired"},
	} {
		fr, err := baseline.Sequential{Groups: c.groups, OnePass: true}.Run(ob, flatProg)
		if err != nil {
			return nil, err
		}
		fate, sal := bobFate(fr.Final)
		t.AddRow(c.name, yesNo(fr.Converged), fate, sal, philSal(fr.Final), pass(fate == c.want))
	}
	return t, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func bobFate(b *objectbase.Base) (string, string) {
	bob := term.GVID{Object: term.Sym("bob")}
	if !b.Has(term.Fact{V: bob, Method: "isa", Result: term.Sym("empl")}) {
		return "fired", "-"
	}
	return "kept", salOf(b, bob)
}

func philSal(b *objectbase.Base) string {
	return salOf(b, term.GVID{Object: term.Sym("phil")})
}

func salOf(b *objectbase.Base, v term.GVID) string {
	out := "?"
	for r := range b.Results(v, term.MethodKey{Method: "sal"}) {
		out = r.String()
	}
	return out
}
