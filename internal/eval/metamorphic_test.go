package eval

import (
	"maps"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// Metamorphic property: evaluation commutes with consistent renaming of
// symbol OIDs. Renaming every symbol in the base and in the program's
// ground terms, running, and renaming back must give the original result —
// the engine cannot depend on the spelling of object identities.

func renameOID(o term.OID) term.OID {
	if o.Sort() == term.SortSym {
		return term.Sym("ren_" + o.Name())
	}
	return o
}

func renameObjTerm(t term.ObjTerm) term.ObjTerm {
	if o, ok := t.(term.OID); ok {
		return renameOID(o)
	}
	return t
}

func renameApp(a term.MethodApp) term.MethodApp {
	out := term.MethodApp{Method: a.Method, Result: renameObjTerm(a.Result)}
	for _, arg := range a.Args {
		out.Args = append(out.Args, renameObjTerm(arg))
	}
	return out
}

func renameExpr(e term.Expr) term.Expr {
	switch x := e.(type) {
	case term.ConstExpr:
		return term.ConstExpr{OID: renameOID(x.OID)}
	case term.BinExpr:
		return term.BinExpr{Op: x.Op, L: renameExpr(x.L), R: renameExpr(x.R)}
	case term.NegExpr:
		return term.NegExpr{E: renameExpr(x.E)}
	default:
		return e
	}
}

func renameAtom(a term.Atom) term.Atom {
	switch x := a.(type) {
	case term.VersionAtom:
		return term.VersionAtom{
			V:   term.VersionID{Base: renameObjTerm(x.V.Base), Path: x.V.Path, Any: x.V.Any},
			App: renameApp(x.App),
		}
	case term.UpdateAtom:
		out := term.UpdateAtom{
			Kind: x.Kind,
			V:    term.VersionID{Base: renameObjTerm(x.V.Base), Path: x.V.Path},
			All:  x.All,
		}
		if !x.All {
			out.App = renameApp(x.App)
			if x.NewResult != nil {
				out.NewResult = renameObjTerm(x.NewResult)
			}
		}
		return out
	case term.BuiltinAtom:
		return term.BuiltinAtom{Op: x.Op, L: renameExpr(x.L), R: renameExpr(x.R)}
	default:
		return a
	}
}

func renameProgram(p *term.Program) *term.Program {
	out := &term.Program{}
	for _, r := range p.Rules {
		nr := term.Rule{Head: renameAtom(r.Head).(term.UpdateAtom), Name: r.Name, Line: r.Line}
		for _, l := range r.Body {
			nr.Body = append(nr.Body, term.Literal{Neg: l.Neg, Atom: renameAtom(l.Atom)})
		}
		out.Rules = append(out.Rules, nr)
	}
	return out
}

func renameBase(b *objectbase.Base) *objectbase.Base {
	out := objectbase.New()
	for _, f := range b.Facts() {
		var args []term.OID
		for _, a := range f.Args.Decode() {
			args = append(args, renameOID(a))
		}
		out.Insert(term.Fact{
			V:      term.GVID{Object: renameOID(f.V.Object), Path: f.V.Path},
			Method: f.Method,
			Args:   term.EncodeOIDs(args),
			Result: renameOID(f.Result),
		})
	}
	return out
}

func TestMetamorphicRenaming(t *testing.T) {
	cases := []struct {
		name string
		base *objectbase.Base
		prog string
	}{
		{"enterprise", workload.EnterpriseSpec{Employees: 50, Seed: 17}.ObjectBase(), workload.EnterpriseProgram},
		{"ancestors", workload.GenealogySpec{Generations: 5, Branching: 2}.ObjectBase(), workload.AncestorsProgram},
		{"paper", nil, enterpriseProgram},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := c.base
			if base == nil {
				base = mustBase(t, enterpriseBase)
			}
			prog := mustProgram(t, c.prog)

			plain, err := Run(base, prog, Options{})
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			renamed, err := Run(renameBase(base), renameProgram(prog), Options{})
			if err != nil {
				t.Fatalf("renamed run: %v", err)
			}
			// Renaming the plain result must equal the renamed result.
			if !renameBase(plain.Result).Equal(renamed.Result) {
				t.Errorf("fixpoints not isomorphic under renaming")
			}
			if !renameBase(plain.Final).Equal(renamed.Final) {
				t.Errorf("finals not isomorphic under renaming")
			}
			if plain.Fired != renamed.Fired {
				t.Errorf("fired: %d vs %d", plain.Fired, renamed.Fired)
			}
		})
	}
}

// The properties below are about sequences of updates and hold for the
// language, not for an implementation, so each is checked on the engine and
// on the spec evaluator (evaluators): the update-sequence postulates of
// Eiter/Fink/Sabbatini/Tompits that make sense without a preference order —
// the empty update is the identity, a repeated ground update is idempotent,
// updates to unrelated objects commute — and U-Datalog's reading of rule
// order (Bertino/Catania/Gori): the updates one evaluation collects do not
// depend on the order the rules are written in.

// sequenceInputs are the object bases the sequence properties run on.
func sequenceInputs(t *testing.T) map[string]*objectbase.Base {
	return map[string]*objectbase.Base{
		"paper":      mustBase(t, enterpriseBase),
		"enterprise": workload.EnterpriseSpec{Employees: 40, Seed: 17}.ObjectBase(),
		"ancestors":  workload.GenealogySpec{Generations: 4, Branching: 2}.ObjectBase(),
	}
}

func TestSequenceEmptyProgramIsIdentity(t *testing.T) {
	for name, ob := range sequenceInputs(t) {
		for _, ev := range evaluators {
			out, err := ev.run(ob, &term.Program{})
			if err != nil {
				t.Fatalf("%s, %s: %v", name, ev.name, err)
			}
			if !out.final.Equal(ob) || !out.result.Equal(ob) || len(out.fired) != 0 {
				t.Errorf("%s, %s: the empty program changed the base or fired %d updates", name, ev.name, len(out.fired))
			}
		}
	}
}

// TestSequenceGroundUpdateIsIdempotent: update-facts that insert, delete and
// modify (no modify putting in what another takes out) bring the base to a
// state on which applying them again changes nothing.
func TestSequenceGroundUpdateIsIdempotent(t *testing.T) {
	p := mustProgram(t, `
a: ins[phil].badge -> gold.
b: del[bob].boss -> phil.
c: mod[ins(phil)].sal -> (4000, 4100).
d: ins[carl].isa -> empl.
e: del[bob].sal -> 1.
`)
	for _, ev := range evaluators {
		once, err := ev.run(mustBase(t, enterpriseBase), p)
		if err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		twice, err := ev.run(once.final, p)
		if err != nil {
			t.Fatalf("%s, second apply: %v", ev.name, err)
		}
		if !twice.final.Equal(once.final) {
			t.Errorf("%s: applying the ground update again changed ob'", ev.name)
		}
		wantFact(t, once.final, `phil.badge -> gold. phil.sal -> 4100. carl.isa -> empl. bob.sal -> 4200.`)
		wantNoFact(t, once.final, `bob.boss -> phil. phil.sal -> 4000.`)
	}
}

// TestSequenceRuleOrderIsImmaterial: a program is a set of rules. Reversing
// and rotating them leaves the fired updates, result(P) and ob' as they were.
func TestSequenceRuleOrderIsImmaterial(t *testing.T) {
	programs := map[string]string{"paper": enterpriseProgram, "enterprise": workload.EnterpriseProgram, "ancestors": workload.AncestorsProgram}
	for name, ob := range sequenceInputs(t) {
		p := mustProgram(t, programs[name])
		n := len(p.Rules)
		reversed, rotated := &term.Program{}, &term.Program{}
		for i := range p.Rules {
			reversed.Rules = append(reversed.Rules, p.Rules[n-1-i])
			rotated.Rules = append(rotated.Rules, p.Rules[(i+1)%n])
		}
		for _, ev := range evaluators {
			want, err := ev.run(ob, p)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, ev.name, err)
			}
			for order, q := range map[string]*term.Program{"reversed": reversed, "rotated": rotated} {
				got, err := ev.run(ob, q)
				if err != nil {
					t.Fatalf("%s, %s, %s: %v", name, ev.name, order, err)
				}
				if !got.result.Equal(want.result) || !got.final.Equal(want.final) || !maps.Equal(got.fired, want.fired) {
					t.Errorf("%s, %s: the %s program evaluates differently", name, ev.name, order)
				}
			}
		}
	}
}

// TestSequenceUnrelatedUpdatesCommute: one program raises the managers, the
// other flags everybody else; neither reads what the other writes, so the
// order they are applied in does not show in the final base.
func TestSequenceUnrelatedUpdatesCommute(t *testing.T) {
	raise := mustProgram(t, `r: mod[E].sal -> (S, S2) <- E.isa -> empl, E.pos -> mgr, E.sal -> S, S2 = S + 1.`)
	flag := mustProgram(t, `f: ins[E].staff -> yes <- E.isa -> empl, !E.pos -> mgr.`)
	for name, ob := range sequenceInputs(t) {
		for _, ev := range evaluators {
			then := func(first, second *term.Program) *objectbase.Base {
				mid, err := ev.run(ob, first)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, ev.name, err)
				}
				end, err := ev.run(mid.final, second)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, ev.name, err)
				}
				return end.final
			}
			if a, b := then(raise, flag), then(flag, raise); !a.Equal(b) {
				t.Errorf("%s, %s: raise-then-flag and flag-then-raise end in different bases", name, ev.name)
			}
		}
	}
}

// TestShapePlansCommuteWithRenaming: the plans a shape-keyed cache keeps
// for a program serve its image under an OID bijection, applied to the
// program and the base alike — a hit for every program whose lift is one
// stratum, the rest planned by text and so a miss — and the run on them
// returns the renamed result(P) and ob'.
func TestShapePlansCommuteWithRenaming(t *testing.T) {
	base := workload.EnterpriseSpec{Employees: 60, Seed: 5}.ObjectBase().Freeze()
	cases := []struct {
		prog string
		hit  bool
	}{
		{`mod[e5].sal -> (S, S') <- e5.sal -> S, S' = S + 1.`, true},
		{`ins[E].peer -> e3 <- E.boss -> e7, e3.boss -> B, E.boss -> B.`, true},
		{`del[e9].* <- e9.isa -> empl.`, true},
		{workload.BulkRaiseProgram, true},
		{workload.AncestorsProgram, true},
		// Stratified in three by its constants; planned by its text.
		{workload.EnterpriseProgram, false},
	}
	for _, c := range cases {
		prog := mustProgram(t, c.prog)
		plain := mustRun(t, base, prog, Options{})
		cp, _, err := PlanProgram(base, prog, nil)
		if err != nil {
			t.Fatalf("%s: PlanProgram: %v", c.prog, err)
		}
		renamedProg, renamedBase := renameProgram(prog), renameBase(base).Freeze()
		shape, _ := ProgramShape(prog, nil)
		rshape, rparams := ProgramShape(renamedProg, nil)
		if shape != rshape {
			t.Errorf("%s: renaming changed the shape", c.prog)
		}
		if got := cp.Serves(renamedProg, rparams); got != c.hit || cp.Lifted() != c.hit {
			t.Errorf("%s: the plans serve the renamed program: %v, lifted %v; want %v", c.prog, got, cp.Lifted(), c.hit)
		}
		renamed := mustRun(t, renamedBase, renamedProg, Options{Plans: cp})
		if want := map[bool]string{true: "cached", false: "compiled"}[c.hit]; renamed.Plan != want {
			t.Errorf("%s: the renamed run's plans were %s, want %s", c.prog, renamed.Plan, want)
		}
		if !renameBase(plain.Result).Equal(renamed.Result) || !renameBase(plain.Final).Equal(renamed.Final) {
			t.Errorf("%s: the renamed run is not the renamed result", c.prog)
		}
		if plain.Fired != renamed.Fired || plain.Assignment.NumStrata() != renamed.Assignment.NumStrata() {
			t.Errorf("%s: fired %d, %d strata; renamed %d, %d", c.prog, plain.Fired, plain.Assignment.NumStrata(), renamed.Fired, renamed.Assignment.NumStrata())
		}
	}
}
