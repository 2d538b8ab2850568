package eval

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"verlog/internal/builtin"
	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/parser"
	"verlog/internal/safety"
	"verlog/internal/spec"
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
		if err := sameQueryAsSpec(c.b, body); err != nil {
			return fmt.Errorf("on the %s: %w", c.name, err)
		}
	}
	return nil
}

// fuzzBase is the fixed object base every fuzz input runs against: a small
// isa-hierarchy with scalar and object-valued methods, enough population
// for index probes and joins to take different code paths in the compiled
// executor. The chain of command is two deep (e1 -> m1 -> m2), without and
// with an argument (boss, dist@), so that a closure over either starts from
// versions that inherit facts of the method it recurses through. The hub h
// carries 18 applications of three methods, more than the dedupSpill = 16 a
// target's update list deduplicates by scanning: a del[h].* fires past it in
// one head instantiation, and a modify per slot and new result does.
const fuzzBase = `
emp.isa -> class.
mgr.isa -> class.
e1.isa -> emp.   e1.sal -> 1000.  e1.dept -> d1.  e1.boss -> m1.  e1.dist@m1 -> 1.
e2.isa -> emp.   e2.sal -> 2000.  e2.dept -> d1.  e2.boss -> m1.
e3.isa -> emp.   e3.sal -> 3000.  e3.dept -> d2.  e3.boss -> m2.
m1.isa -> mgr.   m1.sal -> 5000.  m1.dept -> d1.  m1.boss -> m2.  m1.dist@m2 -> 2.
m2.isa -> mgr.   m2.sal -> 6000.  m2.dept -> d2.
d1.isa -> dept.  d1.loc -> north.
d2.isa -> dept.  d2.loc -> south.
h.isa -> hub.    h.tag -> t1 / tag -> t2 / tag -> t3 / tag -> t4 / tag -> t5 / tag -> t6 / tag -> t7 / tag -> t8.
h.slot@1 -> a / slot@2 -> a / slot@3 -> a / slot@4 -> a / slot@5 -> a / slot@6 -> a / slot@7 -> a / slot@8 -> a / slot@9 -> a.
`

// fuzzSeeds is the fuzzer's seed corpus (programs over fuzzBase).
var fuzzSeeds = []string{
	`r1: ins[X].raised -> yes <- X.isa -> emp.`,
	`r2: ins[X].sal -> S2 <- X.sal -> S, S2 = S + 100.`,
	`r3: ins[X].peer -> Y <- X.dept -> D, Y.dept -> D, X != Y.`,
	`r4: ins[X].low -> yes <- X.isa -> emp, not X.sal -> 3000.`,
	`r5: ins[X].chain -> Z <- X.boss -> Y, Y.dept -> Z.`,
	`a: ins[X].m1 -> 1 <- X.isa -> emp. b: ins[ins(X)].m2 -> V <- ins(X).m1 -> V.`,
	`t: ins[X].big -> S <- X.sal -> S, S > 1500.`,
	`d: del[X].sal -> S <- X.sal -> S, S < 2000.`,
	// Recursive closures whose delta starts from whole versions: ins(e1)
	// appears sharing e1's state, the inherited boss -> m1 (dist@m1 -> 1)
	// included, and the next iteration is seeded from that state by
	// reference — without and with method arguments the seed literal binds.
	`b: ins[X].boss -> Y <- X.boss -> Y. c: ins[X].boss -> Z <- ins(X).boss -> Y, Y.boss -> Z.`,
	`s: ins[X].dist@Y -> D <- X.dist@Y -> D. t: ins[X].dist@Z -> D2 <- ins(X).dist@Y -> D, Y.dist@Z -> D1, D2 = D + D1.`,
	`u: ins[X].via@m1 -> Y <- X.boss -> Y. v: ins[X].via@Y -> Z <- ins(X).via@m1 -> Y, Y.boss -> Z.`,
	// The two arms of the update log that only a long list reaches. 18 and
	// then 27 modifies on mod(h), over two iterations: per slot, one per
	// location (same method, arguments and old result; the new result alone
	// tells them apart, in the list and past the spill) and, once ins(d1)
	// exists, one more that n derives and o derives again.
	`m: mod[h].slot@K -> (a, T) <- h.slot@K -> a, D.loc -> T. i: ins[d1].on -> yes <- d1.isa -> dept. n: mod[h].slot@K -> (a, b) <- ins(d1).on -> yes, h.slot@K -> a. o: mod[h].slot@1 -> (a, b) <- ins(d1).on -> yes.`,
	// del[X].* takes the methods of its 18 deletes from the facts of h,
	// beside heads that name methods of their own; a derives the set again
	// an iteration later.
	`s: ins[Y].seen -> X <- Y.dept -> X. w: del[X].* <- X.isa -> hub. t: ins[d2].on -> yes <- d2.isa -> dept. a: del[X].* <- ins(d2).on -> yes, X.isa -> hub.`,
}

// oneSidedFault is a seed the evaluators may differ on (orderDecides): Y + 1
// is ill-typed for every emp, but the engine starts from the empty X.isa ->
// nothing and evaluates it for none.
const oneSidedFault = `o: ins[Y].m -> Z <- Y.isa -> emp, Z = Y + 1, X.isa -> nothing.`

// builtinFault reports the error of a built-in meeting an instance it cannot
// evaluate: operands of the wrong sort, a zero divisor, rational overflow.
func builtinFault(err error) bool {
	var te *builtin.TypeError
	return errors.As(err, &te) || errors.Is(err, term.ErrRatOverflow) ||
		err != nil && strings.Contains(err.Error(), "division by zero")
}

// orderDecides reports whether err is the one disagreement not held against
// either evaluator: a built-in fault on one side only, over a body in which
// the built-in stands beside another literal. Whether the faulty instance is
// reached at all then depends on which of the two runs first — `X.isa -> emp,
// 1 = 1 / 0` fails if the built-in runs first, or if some X is an emp — and
// the paper orders no body. A fault where nothing can run ahead of the built-in,
// and any other one-sided refusal, stay errors.
func orderDecides(err error, rules ...term.Rule) bool {
	var m *classMismatch
	if !errors.As(err, &m) || builtinFault(m.engine) == builtinFault(m.spec) {
		return false
	}
	for _, r := range rules {
		for _, l := range r.Body {
			if _, ok := l.Atom.(term.BuiltinAtom); ok && len(r.Body) > 1 {
				return true
			}
		}
	}
	return false
}

// FuzzEngineVsSpec feeds arbitrary program text to the engine and to the
// spec evaluator (internal/spec: the paper's definitions over a plain set of
// facts). A safe program must be refused by both for the same class of reason
// — not stratifiable, not version-linear, no fixpoint within the bound — or
// produce the same result(P), the same ob' and the same set of fired updates;
// a program package safety passes must never fail to compile. Every accepted
// input is also held against the delta oracles (checkDelta), and each of its
// rule bodies is put as a query to Query and to the spec's enumerator on
// every kind of base (checkQueries). Two things are left open, because the
// paper is silent on them: what an unsafe program means, and which instances
// of a built-in get evaluated at all (orderDecides).
func FuzzEngineVsSpec(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add(oneSidedFault)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parser.Program(src, "fuzz.vlg")
		if err != nil {
			return
		}
		ob, err := parser.ObjectBase(fuzzBase, "fuzz-ob.vlg")
		if err != nil {
			t.Fatal(err)
		}
		if safety.Program(p) != nil {
			Run(ob, p, Options{MaxIterations: 50}) // must not panic
			return
		}
		// Bound iterations: fuzzed recursion through arithmetic can diverge,
		// and both evaluators must hit the bound.
		res, rerr, err := sameAsSpec(ob, p, Options{MaxIterations: 50})
		if classOf(rerr) == spec.ErrUnsafe {
			t.Fatalf("safe program %q does not compile: %v", src, rerr)
		}
		if orderDecides(err, p.Rules...) {
			t.Logf("%q: not held against either: %v", src, err)
		} else if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if rerr != nil || err != nil {
			return
		}
		if err := checkDelta(ob, res); err != nil {
			t.Errorf("run of %q: %v", src, err)
		}
		for ri, r := range p.Rules {
			if err := checkQueries(ob, res, r.Body); orderDecides(err, r) {
				t.Logf("body of %s in %q as a query, not held against either: %v", r.Label(ri), src, err)
			} else if err != nil {
				t.Errorf("body of %s in %q as a query %v", r.Label(ri), src, err)
			}
		}
	})
}
