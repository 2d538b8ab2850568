package bench

import (
	"errors"
	"time"

	"verlog/internal/baseline"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/workload"
)

func directRun(emps []baseline.Employee) int { return baseline.DirectEnterprise(emps) }

// --- E7: version-linearity check -------------------------------------------

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "Section 5 version-linearity: online check accepts chains, rejects branches",
		Run:   runE7,
	})
}

func runE7() (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "version-linearity (Section 5)",
		Note:  "the run-time check is cheap (one subterm comparison per new version) and rejects the paper's mod/del conflict example",
		Header: []string{
			"program", "items", "outcome", "check", "time_ms",
		},
	}
	// Linear: the k=6 chain on 500 items — accepted.
	{
		p := mustProgram(workload.ChainProgram(6))
		ob := workload.Items(500)
		_, d, err := run(ob, p, eval.Options{})
		t.AddRow("linear chain k=6", 500, outcomeOf(err), pass(err == nil), ms(d))
		if err != nil {
			return nil, err
		}
	}
	// Branching: the Section 5 example — mod and del on the same object.
	{
		p := mustProgram(`
ra: mod[X].m -> (a, b) <- X.isa -> item.
rb: del[X].m -> a <- X.isa -> item.
`)
		ob, err := parser.ObjectBase(`x.isa -> item / m -> a.`, "e7.vlg")
		if err != nil {
			return nil, err
		}
		_, d, err := run(ob, p, eval.Options{})
		var le *eval.LinearityError
		rejected := errors.As(err, &le)
		t.AddRow("mod/del branch (paper sect. 5)", 1, outcomeOf(err), pass(rejected), ms(d))
	}
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

func init() {
	register(Experiment{
		ID:    "E8",
		Title: "Section 3 frame problem: copy cost scales with touched objects, not base size",
		Run:   runE8,
	})
}

func runE8() (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "frame-problem overhead (Section 3, footnote 4)",
		Note:  "copying only updated states keeps the frame overhead proportional to the touched objects' state volume (copied_facts): sweep 1 varies the touched fraction, sweep 2 the touched objects' payload, sweep 3 grows the base at a fixed touched count — copied_facts stays constant there",
		Header: []string{
			"sweep", "objects", "payload_facts", "touched", "copied_facts", "time_ms",
		},
	}
	const methods = 8
	for _, pct := range []int{1, 5, 10, 25, 50, 100} {
		ob := workload.TouchedSpec{Objects: 2000, Methods: methods}.ObjectBase()
		p := mustProgram(workload.TouchProgram(pct))
		res, d, err := run(ob, p, eval.Options{})
		if err != nil {
			return nil, err
		}
		touched, copied := touchedStats(res)
		t.AddRow("fraction", 2000, methods, touched, copied, ms(d))
	}
	// Payload sweep at fixed 10% touched: the copy pays for the touched
	// objects' own state size.
	for _, m := range []int{8, 32, 128} {
		ob := workload.TouchedSpec{Objects: 1000, Methods: m}.ObjectBase()
		p := mustProgram(workload.TouchProgram(10))
		res, d, err := run(ob, p, eval.Options{})
		if err != nil {
			return nil, err
		}
		touched, copied := touchedStats(res)
		t.AddRow("payload", 1000, m, touched, copied, ms(d))
	}
	// Base-size sweep at a fixed touched count: copied_facts must stay
	// constant; only the (index-driven) matching grows with the base.
	for _, n := range []int{1000, 4000, 16000} {
		ob := workload.TouchedSpec{Objects: n, Methods: methods}.ObjectBase()
		p := mustProgram(workload.TouchFirstProgram(100))
		res, d, err := run(ob, p, eval.Options{})
		if err != nil {
			return nil, err
		}
		touched, copied := touchedStats(res)
		t.AddRow("base-size", n, methods, touched, copied, ms(d))
	}
	return t, nil
}

func touchedStats(res *eval.Result) (touched, copied int) {
	for _, v := range res.Result.Versions() {
		if v.Path.Len() == 1 {
			touched++
			copied += res.Result.StateOf(v).Size()
		}
	}
	return touched, copied
}

// --- E9: control — versions vs inflationary vs manual ordering --------------

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "Section 2.4 control: versioned vs inflationary vs manually ordered flat rules",
		Run:   runE9,
	})
}

func runE9() (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "update control (Section 2.4)",
		Note:  "verlog derives the raise-then-fire order from VIDs; flat inflationary diverges on the raise rule; manual groups work only in the right order (bob at 4100 must survive at 4510)",
		Header: []string{
			"engine", "converged", "bob_fate", "bob_sal", "phil_sal", "matches_intended", "time_ms",
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

	// Intended semantics: verlog.
	{
		ob, err := parser.ObjectBase(base, "e9.vlg")
		if err != nil {
			return nil, err
		}
		res, d, err := run(ob, mustProgram(workload.EnterpriseProgram), eval.Options{})
		if err != nil {
			return nil, err
		}
		fate, sal := bobFate(res.Final)
		t.AddRow("verlog (versioned)", "yes", fate, sal, philSal(res.Final),
			pass(fate == "kept" && sal == "4510"), ms(d))
	}
	// Flat inflationary: diverges.
	{
		ob, _ := parser.ObjectBase(base, "e9.vlg")
		var fr *baseline.FlatResult
		d, err := timed(func() error {
			var err error
			fr, err = baseline.Inflationary{MaxIterations: 12}.Run(ob, flatProg)
			return err
		})
		if err != nil {
			return nil, err
		}
		fate, sal := bobFate(fr.Final)
		t.AddRow("flat inflationary", yesNo(fr.Converged), fate, sal, philSal(fr.Final),
			pass(!fr.Converged), ms(d))
	}
	// Flat sequential, right and wrong order.
	for _, c := range []struct {
		name   string
		groups [][]int
		want   string
	}{
		{"flat sequential raise->fire", [][]int{{0, 1}, {2}, {3}}, "kept"},
		{"flat sequential fire->raise", [][]int{{2}, {0, 1}, {3}}, "fired"},
	} {
		ob, _ := parser.ObjectBase(base, "e9.vlg")
		var fr *baseline.FlatResult
		d, err := timed(func() error {
			var err error
			fr, err = baseline.Sequential{Groups: c.groups, OnePass: true}.Run(ob, flatProg)
			return err
		})
		if err != nil {
			return nil, err
		}
		fate, sal := bobFate(fr.Final)
		intended := c.want == "kept"
		t.AddRow(c.name, yesNo(fr.Converged), fate, sal, philSal(fr.Final),
			pass((fate == "kept") == intended && fate == c.want), ms(d))
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

// --- E11: overhead vs hand-coded updates -------------------------------------

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "Overhead factor: versioned rule engine vs hand-coded imperative update",
		Run:   runE11,
	})
}

func runE11() (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "rule engine vs direct imperative update",
		Note:  "the declarative engine pays for copying, matching and stratified iteration; the factor is the price of 'update = logic + control' over hand-written code",
		Header: []string{
			"employees", "verlog_ms", "direct_ms", "factor", "same_outcome",
		},
	}
	p := mustProgram(workload.EnterpriseProgram)
	for _, n := range []int{100, 1000, 5000} {
		spec := workload.EnterpriseSpec{Employees: n, Seed: 99}
		emps := spec.Generate()

		ob := workload.EmployeesToBase(emps)
		res, dv, err := runBest(3, ob, p, eval.Options{})
		if err != nil {
			return nil, err
		}

		var dd time.Duration
		dd, _ = timedBest(3, func() error {
			direct := baseline.FromWorkload(emps)
			baseline.DirectEnterprise(direct)
			return nil
		})

		matches, _, _, _ := compareWithDirect(res.Final, emps)
		t.AddRow(n, ms(dv), ms(dd), ratio(dv, dd), pass(matches))
	}
	return t, nil
}

// --- E12: building the new object base ---------------------------------------

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Section 5: cost of building ob' from final versions",
		Run:   runE12,
	})
}

func runE12() (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "building ob' (Section 5)",
		Note:  "finalize copies one state per object — cost grows with objects and final-state size, not with the number of intermediate versions",
		Header: []string{
			"items", "k_groups", "versions", "result_facts", "final_facts", "finalize_ms",
		},
	}
	for _, c := range []struct{ items, k int }{
		{500, 2}, {500, 8}, {2000, 2}, {2000, 8},
	} {
		p := mustProgram(workload.ChainProgram(c.k))
		ob := workload.Items(c.items)
		res, _, err := run(ob, p, eval.Options{})
		if err != nil {
			return nil, err
		}
		var final int
		d, _ := timed(func() error {
			final = eval.Finalize(res.Result).Size()
			return nil
		})
		t.AddRow(c.items, c.k, len(res.Result.Versions()), res.Result.Size(), final, ms(d))
	}
	return t, nil
}
