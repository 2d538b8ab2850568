package eval

import (
	"errors"
	"slices"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// orders calls f with every ordering of rules.
func orders(rules []term.Rule, f func([]term.Rule)) {
	if len(rules) <= 1 {
		f(rules)
		return
	}
	for i := range rules {
		rest := slices.Concat(rules[:i], rules[i+1:])
		orders(rest, func(tail []term.Rule) { f(append([]term.Rule{rules[i]}, tail...)) })
	}
}

// refusals runs p on ob in every order of its rules, runs times each, and
// returns the distinct errors it was refused with, by text.
func refusalTexts(t *testing.T, ob *objectbase.Base, p *term.Program, opts Options, runs int) map[string]error {
	t.Helper()
	texts := map[string]error{}
	orders(p.Rules, func(rules []term.Rule) {
		q := *p
		q.Rules = rules
		for range runs {
			_, err := Run(ob, &q, opts)
			if err == nil {
				t.Fatalf("rules in the order %v: no refusal", q.RuleLabels())
			}
			texts[err.Error()] = err
		}
	})
	return texts
}

// only returns the one error of texts, failing the test when there are
// more or fewer.
func only(t *testing.T, texts map[string]error) error {
	t.Helper()
	if len(texts) != 1 {
		for text := range texts {
			t.Log(text)
		}
		t.Fatalf("%d different refusals, want one", len(texts))
	}
	for _, err := range texts {
		return err
	}
	return nil
}

// TestRefusalIgnoresOrder holds a refusal to what sets decide: the updates
// of an iteration, the versions of an object and the objects that fail are
// sets, so neither the order of the rules nor the order the maps hand out
// candidates, updates and input versions in changes what a refusal names.
func TestRefusalIgnoresOrder(t *testing.T) {
	t.Run("in an iteration", func(t *testing.T) {
		for _, c := range []struct{ base, prog string }{
			{`o.m -> a.`, `
ri: ins[o].k -> v <- o.m -> a.
rd: del[o].m -> a <- o.m -> a.
rm: mod[o].m -> (a, b) <- o.m -> a.`},
			{`o.t -> 1 / m -> a. p.t -> 1 / m -> a.`, `
rm: mod[X].m -> (a, b) <- X.t -> 1.
rd: del[X].m -> a <- X.t -> 1.
ri: ins[X].k -> c <- X.t -> 1.`},
			{`a.t -> 1 / m -> x. b.t -> 1 / m -> x. c.t -> 1 / m -> x.`, `
rm: mod[X].m -> (x, y) <- X.t -> 1.
rd: del[X].m -> x <- X.t -> 1.`},
		} {
			var le *LinearityError
			if err := only(t, refusalTexts(t, mustBase(t, c.base).Freeze(), mustProgram(t, c.prog), Options{}, 20)); !errors.As(err, &le) {
				t.Fatalf("%v, want a LinearityError", err)
			}
		}
	})

	t.Run("a named pair", func(t *testing.T) {
		p := mustProgram(t, "ins[henry].hobby -> chess.\ndel[henry].isa -> empl.")
		var le *LinearityError
		if err := only(t, refusalTexts(t, mustBase(t, `henry.isa -> empl.`), p, Options{}, 20)); !errors.As(err, &le) {
			t.Fatalf("%v, want a LinearityError", err)
		}
		henry := term.Sym("henry")
		if want := (LinearityError{Object: henry, A: term.GV(henry, term.Del), B: term.GV(henry, term.Ins)}); *le != want {
			t.Fatalf("the refusal names %s and %s, want %s and %s", le.A, le.B, want.A, want.B)
		}
	})

	t.Run("in the input", func(t *testing.T) {
		// Run freezes a copy of the mutable input each time, and its list of
		// unsettled versions follows map order anew.
		ob := objectbase.New()
		for _, o := range []string{"c", "a", "b"} {
			ob.EnsureObject(term.Sym(o))
			for _, k := range []term.UpdateKind{term.Ins, term.Del, term.Mod} {
				ob.Insert(term.NewFact(term.GV(term.Sym(o), k), "m", term.Sym("x")))
			}
		}
		var le *LinearityError
		if err := only(t, refusalTexts(t, ob, mustProgram(t, `r: ins[X].k -> y <- X.m -> x.`), Options{}, 200)); !errors.As(err, &le) || le.Object != term.Sym("a") {
			t.Fatalf("%v, want a LinearityError on a", err)
		}
	})

	t.Run("a new object", func(t *testing.T) {
		base, prog := goldenCase(t, "38-inserts-on-an-unknown-object.txt")
		var ne *NewObjectError
		if err := only(t, refusalTexts(t, mustBase(t, base).Freeze(), mustProgram(t, prog), Options{ForbidNewObjects: true}, 2)); !errors.As(err, &ne) || ne.Update.String() != "ins[log].about -> nodes" {
			t.Fatalf("%v, want a NewObjectError naming ins[log].about -> nodes", err)
		}
	})

	t.Run("the least object decides", func(t *testing.T) {
		// o fails linearity; the new object is a0 before it and z0 after it.
		for _, c := range []struct {
			fresh string
			want  any
		}{{"a0", new(*NewObjectError)}, {"z0", new(*LinearityError)}} {
			p := mustProgram(t, `
rn: ins[`+c.fresh+`].k -> v <- o.m -> a.
rd: del[o].m -> a <- o.m -> a.
rm: mod[o].m -> (a, b) <- o.m -> a.`)
			if err := only(t, refusalTexts(t, mustBase(t, `o.m -> a.`).Freeze(), p, Options{ForbidNewObjects: true}, 20)); !errors.As(err, c.want) {
				t.Fatalf("new object %s: %v, want a %T", c.fresh, err, c.want)
			}
		}
	})
}
