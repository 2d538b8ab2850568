package eval

import (
	"fmt"
	"reflect"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/parser"
	"verlog/internal/term"
)

// checkDelta holds the delta-shaped products of a run against their
// oracles: the updated base, derived from the input by sharing, equals the
// generic Finalize of the fixpoint; the changes the engine reports amount
// to the diff Compute finds between input and updated base; and the
// updated base's layered scans and index probes answer like a flat copy.
func checkDelta(ob *objectbase.Base, res *Result) error {
	if want := Finalize(res.Result); !res.Final.Equal(want) || !want.Equal(res.Final) {
		return fmt.Errorf("Final is not Finalize(Result):\ngot:\n%swant:\n%s",
			parser.FormatFacts(res.Final, true), parser.FormatFacts(want, true))
	}
	if u := res.Final.Unsettled(); len(u) != 0 {
		return fmt.Errorf("the updated base lists unsettled versions %v", u)
	}
	return obtest.CheckDerived(ob, res.Final, res.Changes)
}

// sameQuery answers the body on the base with Query — compiled, probing the
// base's own index — and with the interpreter on a flat copy of the base,
// and compares the two: error for error, row for row, in order.
func sameQuery(base *objectbase.Base, body []term.Literal) error {
	got, errC := Query(base, body)
	want, errI := QueryInterpreted(base.Clone(), body)
	if (errC == nil) != (errI == nil) {
		return fmt.Errorf("error disagreement: compiled=%v interpreted=%v", errC, errI)
	}
	if errC != nil {
		return nil
	}
	render := func(bs []Binding) []string {
		var out []string
		for _, b := range bs {
			out = append(out, b.String())
		}
		return out
	}
	if g, w := render(got), render(want); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("answers differ:\ncompiled:    %q\ninterpreted: %q", g, w)
	}
	return nil
}

// deltaHead returns a head derived from a frozen root holding ob's facts
// (and enough padding for the flatten rule to leave a delta layer) in which
// one object of ob is changed, one is deleted — a tombstone, so the root's
// index hits for it are stale — and one is created. With fewer than two
// objects in ob it returns nil.
func deltaHead(ob *objectbase.Base) *objectbase.Base {
	objs := ob.Objects()
	if len(objs) < 2 {
		return nil
	}
	root := ob.Clone()
	for i := 0; i < 64; i++ {
		pad := term.GVID{Object: term.Sym(fmt.Sprintf("pad%d", i))}
		root.EnsureObject(pad.Object)
		root.Insert(term.NewFact(pad, "isa", term.Sym("pad")))
	}
	root.Freeze()
	changed, deleted := term.GVID{Object: objs[0]}, term.GVID{Object: objs[1]}
	created := term.GVID{Object: term.Sym("created")}
	old := root.StateOf(changed)
	ns := old.Clone()
	done := false
	old.ForEach(func(k term.MethodKey, r term.OID) {
		if done || k.Method == term.ExistsMethod {
			return
		}
		done = true
		ns.Remove(k, r)
		if r.IsNum() {
			ns.Add(k, term.FromRat(r.Rat().Add(term.Int(1).Rat())))
		} else {
			ns.Add(k, term.Sym(r.Name()+"_changed"))
		}
	})
	gone := root.StateOf(deleted)
	head := root.Derive([]objectbase.Change{
		{V: changed, Old: old, New: ns},
		{V: deleted, Old: gone},
		{V: created, New: gone.CloneFinal(created.Object)},
	})
	if head.Parent() != root {
		panic("deltaHead: the derived head is not a delta layer over its root")
	}
	return head
}

// checkQueries puts a body to every kind of base a query meets: the input
// as parsed (unfrozen: a fresh index per query, partitions cut from the
// contents at probe time), the same frozen (one cached index), result(P)
// (deep versions, which scan), and a derived head (layered index, stale
// inherited hits).
func checkQueries(ob *objectbase.Base, res *Result, body []term.Literal) error {
	bases := []struct {
		name string
		b    *objectbase.Base
	}{
		{"input", ob}, {"frozen input", ob.Clone().Freeze()}, {"result(P)", res.Result},
		{"ob'", res.Final}, {"derived head", deltaHead(ob)},
	}
	for _, c := range bases {
		if c.b == nil {
			continue
		}
		if err := sameQuery(c.b, body); err != nil {
			return fmt.Errorf("on the %s: %w", c.name, err)
		}
	}
	return nil
}

// fuzzBase is the fixed object base every fuzz input runs against: a small
// isa-hierarchy with scalar and object-valued methods, enough population
// for index probes and joins to take different code paths in the compiled
// executor and the interpreter.
const fuzzBase = `
emp.isa -> class.
mgr.isa -> class.
e1.isa -> emp.   e1.sal -> 1000.  e1.dept -> d1.  e1.boss -> m1.
e2.isa -> emp.   e2.sal -> 2000.  e2.dept -> d1.  e2.boss -> m1.
e3.isa -> emp.   e3.sal -> 3000.  e3.dept -> d2.  e3.boss -> m2.
m1.isa -> mgr.   m1.sal -> 5000.  m1.dept -> d1.
m2.isa -> mgr.   m2.sal -> 6000.  m2.dept -> d2.
d1.isa -> dept.  d1.loc -> north.
d2.isa -> dept.  d2.loc -> south.
`

// fuzzSeeds is the fuzzer's seed corpus (programs over fuzzBase).
var fuzzSeeds = []string{
	`r1: ins[X].raised <- X.isa -> emp.`,
	`r2: ins[X].sal -> S2 <- X.sal -> S, S2 = S + 100.`,
	`r3: ins[X].peer -> Y <- X.dept -> D, Y.dept -> D, X != Y.`,
	`r4: ins[X].low <- X.isa -> emp, not X.sal -> 3000.`,
	`r5: ins[X].chain -> Z <- X.boss -> Y, Y.dept -> Z.`,
	`a: ins[X].m1 <- X.isa -> emp. b: ins(X).m2 <- a(X).m1.`,
	`t: ins[X].big <- X.sal -> S, S > 1500.`,
	`d: del[X].sal -> S <- X.sal -> S, S < 2000.`,
}

// FuzzCompiledVsInterpreted feeds arbitrary program text through both body
// evaluators. Inputs that fail to parse, fail the safety/stratification
// checks, or error in either engine are only checked for error agreement;
// inputs both engines accept must produce identical fixpoints. The seeds
// cover the plan shapes the compiler specializes: version probes, result
// probes, joins, negation, comparisons and multi-path heads. Every accepted
// input is also held against the delta oracles (checkDelta), and each of its
// rule bodies is put as a query to the compiled Query and to the interpreter
// (checkQueries).
func FuzzCompiledVsInterpreted(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parser.Program(src, "fuzz.vlg")
		if err != nil {
			return
		}
		obC, err := parser.ObjectBase(fuzzBase, "fuzz-ob.vlg")
		if err != nil {
			t.Fatal(err)
		}
		obI, err := parser.ObjectBase(fuzzBase, "fuzz-ob.vlg")
		if err != nil {
			t.Fatal(err)
		}
		// Bound iterations: fuzzed recursion through arithmetic can diverge,
		// and both engines must hit the same bound.
		resC, errC := Run(obC, p, Options{MaxIterations: 50})
		resI, errI := Run(obI, p, Options{MaxIterations: 50, Interpreted: true})
		if (errC == nil) != (errI == nil) {
			t.Fatalf("error disagreement on %q:\ncompiled:    %v\ninterpreted: %v", src, errC, errI)
		}
		if errC != nil {
			return
		}
		if resC.Fired != resI.Fired {
			t.Errorf("fired disagreement on %q: compiled=%d interpreted=%d", src, resC.Fired, resI.Fired)
		}
		if !resC.Result.Equal(resI.Result) {
			t.Errorf("fixpoint disagreement on %q\ncompiled:\n%s\ninterpreted:\n%s", src,
				parser.FormatFacts(resC.Result, true), parser.FormatFacts(resI.Result, true))
		}
		if !resC.Final.Equal(resI.Final) {
			t.Errorf("final-base disagreement on %q\ncompiled:\n%s\ninterpreted:\n%s", src,
				parser.FormatFacts(resC.Final, true), parser.FormatFacts(resI.Final, true))
		}
		if err := checkDelta(obC, resC); err != nil {
			t.Errorf("compiled run of %q: %v", src, err)
		}
		if err := checkDelta(obI, resI); err != nil {
			t.Errorf("interpreted run of %q: %v", src, err)
		}
		// A rule body is a query: every body is answered by the compiled
		// Query and by the interpreter, on every kind of base.
		for ri, r := range p.Rules {
			if err := checkQueries(obC, resC, r.Body); err != nil {
				t.Errorf("body of %s in %q as a query %v", r.Label(ri), src, err)
			}
		}
	})
}
