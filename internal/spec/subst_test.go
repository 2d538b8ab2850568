package spec

import (
	"errors"
	"testing"

	"verlog/internal/builtin"
	"verlog/internal/term"
)

func num(s string) term.OID {
	r, err := term.ParseRat(s)
	if err != nil {
		panic(err)
	}
	return term.FromRat(r)
}

func c(s string) term.Expr   { return term.ConstExpr{OID: num(s)} }
func v(n string) term.Expr   { return term.VarExpr{V: term.Var(n)} }
func sym(n string) term.Expr { return term.ConstExpr{OID: term.Sym(n)} }

func bin(op term.ArithOp, l, r term.Expr) term.Expr { return term.BinExpr{Op: op, L: l, R: r} }

func TestEvalExprArithmetic(t *testing.T) {
	s := subst{"S": term.Int(4000)}
	// S * 1.1 + 200 = 4600, exactly.
	e := bin(term.OpAdd, bin(term.OpMul, v("S"), c("1.1")), c("200"))
	got, err := evalExpr(e, s)
	if err != nil {
		t.Fatalf("evalExpr: %v", err)
	}
	if got != term.Int(4600) {
		t.Errorf("got %s, want 4600 exactly", got)
	}
	cases := []struct {
		e    term.Expr
		want term.OID
	}{
		{bin(term.OpSub, c("7"), c("9")), term.Int(-2)},
		{bin(term.OpDiv, c("7"), c("2")), num("3.5")},
		{term.NegExpr{E: c("5")}, term.Int(-5)},
		{bin(term.OpMul, c("1.5"), c("2")), term.Int(3)},
	}
	for i, cse := range cases {
		got, err := evalExpr(cse.e, nil)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if got != cse.want {
			t.Errorf("case %d: got %s, want %s", i, got, cse.want)
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	if _, err := evalExpr(v("X"), nil); !errors.Is(err, errUnbound) {
		t.Errorf("unbound: err = %v", err)
	}
	var te *builtin.TypeError
	if _, err := evalExpr(bin(term.OpMul, sym("henry"), c("2")), nil); !errors.As(err, &te) {
		t.Errorf("type error: err = %v", err)
	}
	if _, err := evalExpr(term.NegExpr{E: sym("a")}, nil); !errors.As(err, &te) {
		t.Errorf("neg type error: err = %v", err)
	}
	if _, err := evalExpr(bin(term.OpDiv, c("1"), c("0")), nil); err == nil {
		t.Errorf("division by zero succeeded")
	}
}

func TestEvalExprOverflowReported(t *testing.T) {
	e := bin(term.OpMul, c("9223372036854775807"), c("9223372036854775807"))
	_, err := evalExpr(e, nil)
	if !errors.Is(err, term.ErrRatOverflow) {
		t.Errorf("err = %v, want ErrRatOverflow", err)
	}
	// Overflow inside Solve is reported too, not panicking.
	_, err = solveBuiltin(term.BuiltinAtom{Op: term.OpEq, L: v("X"), R: e}, subst{})
	if !errors.Is(err, term.ErrRatOverflow) {
		t.Errorf("solveBuiltin err = %v, want ErrRatOverflow", err)
	}
}

func TestSolveBindsEquality(t *testing.T) {
	s := subst{"S": term.Int(100)}
	// S' = S * 1.1 binds S'.
	ok, err := solveBuiltin(term.BuiltinAtom{
		Op: term.OpEq, L: v("S'"),
		R: bin(term.OpMul, v("S"), c("1.1")),
	}, s)
	if err != nil || !ok {
		t.Fatalf("solveBuiltin: %v, %v", ok, err)
	}
	if s["S'"] != term.Int(110) {
		t.Errorf("S' = %s", s["S'"])
	}
	// Reversed orientation binds too.
	s2 := subst{"S": term.Int(100)}
	ok, err = solveBuiltin(term.BuiltinAtom{Op: term.OpEq, L: v("S"), R: v("T")}, s2)
	if err != nil || !ok || s2["T"] != term.Int(100) {
		t.Errorf("var=var binding: %v %v %v", ok, err, s2)
	}
	s3 := subst{"T": term.Int(5)}
	ok, err = solveBuiltin(term.BuiltinAtom{Op: term.OpEq, L: bin(term.OpAdd, v("T"), c("1")), R: v("U")}, s3)
	if err != nil || !ok || s3["U"] != term.Int(6) {
		t.Errorf("reverse binding: %v %v %v", ok, err, s3)
	}
}

func TestSolveComparisons(t *testing.T) {
	s := subst{"A": term.Int(1), "B": term.Int(2)}
	cases := []struct {
		op   term.CmpOp
		want bool
	}{
		{term.OpLt, true}, {term.OpLe, true}, {term.OpGt, false},
		{term.OpGe, false}, {term.OpEq, false}, {term.OpNe, true},
	}
	for _, cse := range cases {
		ok, err := solveBuiltin(term.BuiltinAtom{Op: cse.op, L: v("A"), R: v("B")}, s)
		if err != nil {
			t.Fatalf("%v: %v", cse.op, err)
		}
		if ok != cse.want {
			t.Errorf("1 %v 2 = %v, want %v", cse.op, ok, cse.want)
		}
	}
}

func TestSolveEqualityOnSymbolsAndStrings(t *testing.T) {
	s := subst{"X": term.Sym("mgr")}
	ok, err := solveBuiltin(term.BuiltinAtom{Op: term.OpEq, L: v("X"), R: sym("mgr")}, s)
	if err != nil || !ok {
		t.Errorf("symbol equality: %v %v", ok, err)
	}
	ok, err = solveBuiltin(term.BuiltinAtom{Op: term.OpNe, L: v("X"), R: sym("empl")}, s)
	if err != nil || !ok {
		t.Errorf("symbol inequality: %v %v", ok, err)
	}
	// Ordering two symbols is lexicographic; ordering across sorts errors.
	ok, err = solveBuiltin(term.BuiltinAtom{Op: term.OpLt, L: sym("a"), R: sym("b")}, nil)
	if err != nil || !ok {
		t.Errorf("symbol < symbol: %v %v", ok, err)
	}
	var te *builtin.TypeError
	if _, err := solveBuiltin(term.BuiltinAtom{Op: term.OpLt, L: sym("a"), R: c("1")}, nil); !errors.As(err, &te) {
		t.Errorf("cross-sort ordering: err = %v", err)
	}
}

func TestSolveEqualityBothBoundDoesNotRebind(t *testing.T) {
	s := subst{"A": term.Int(1), "B": term.Int(2)}
	ok, err := solveBuiltin(term.BuiltinAtom{Op: term.OpEq, L: v("A"), R: v("B")}, s)
	if err != nil || ok {
		t.Errorf("1 = 2 reported %v, %v", ok, err)
	}
	if s["A"] != term.Int(1) || s["B"] != term.Int(2) {
		t.Errorf("bindings changed: %v", s)
	}
}

func TestSubstResolve(t *testing.T) {
	s := subst{"E": term.Sym("phil"), "S": term.Int(4000)}
	if o, ok := s.resolveOID(term.Var("E")); !ok || o != term.Sym("phil") {
		t.Errorf("ResolveOID bound var")
	}
	if _, ok := s.resolveOID(term.Var("Z")); ok {
		t.Errorf("ResolveOID unbound var succeeded")
	}
	if o, ok := s.resolveOID(term.Int(5)); !ok || o != term.Int(5) {
		t.Errorf("ResolveOID ground")
	}
	v, ok := s.resolveVID(term.NewVersionID(term.Var("E"), term.Mod))
	if !ok || v != term.GV(term.Sym("phil"), term.Mod) {
		t.Errorf("ResolveVID = %v, %v", v, ok)
	}
	if _, ok := s.resolveVID(term.NewVersionID(term.Var("Z"), term.Mod)); ok {
		t.Errorf("ResolveVID unbound succeeded")
	}
	rt, ground := s.resolveObj(term.Var("Z"))
	if ground || rt != term.Var("Z") {
		t.Errorf("ResolveObj unbound = %v, %v", rt, ground)
	}
}

func TestSubstMatchObj(t *testing.T) {
	s := subst{}
	if !s.matchObj(term.Var("X"), term.Sym("a")) {
		t.Fatalf("fresh bind failed")
	}
	if !s.matchObj(term.Var("X"), term.Sym("a")) {
		t.Errorf("consistent rebind failed")
	}
	if s.matchObj(term.Var("X"), term.Sym("b")) {
		t.Errorf("conflicting rebind succeeded")
	}
	if !s.matchObj(term.Sym("k"), term.Sym("k")) || s.matchObj(term.Sym("k"), term.Sym("l")) {
		t.Errorf("ground match broken")
	}
}

func TestSubstMatchArgs(t *testing.T) {
	s := subst{}
	pats := []term.ObjTerm{term.Var("A"), term.Int(2), term.Var("A")}
	if !s.matchArgs(pats, []term.OID{term.Int(1), term.Int(2), term.Int(1)}) {
		t.Errorf("repeated-var args failed")
	}
	s2 := subst{}
	if s2.matchArgs(pats, []term.OID{term.Int(1), term.Int(2), term.Int(3)}) {
		t.Errorf("inconsistent repeated var succeeded")
	}
	if (subst{}).matchArgs(pats, []term.OID{term.Int(1)}) {
		t.Errorf("arity mismatch succeeded")
	}
}

func TestSubstCloneIndependent(t *testing.T) {
	s := subst{"X": term.Int(1)}
	c := s.clone()
	c["Y"] = term.Int(2)
	if _, ok := s["Y"]; ok {
		t.Errorf("clone not independent")
	}
	if c["X"] != term.Int(1) {
		t.Errorf("clone lost binding")
	}
	var nilSubst subst
	if got := nilSubst.clone(); got == nil || len(got) != 0 {
		t.Errorf("nil clone = %v", got)
	}
}

func TestGVIDSubtermsAndComparable(t *testing.T) {
	o := term.Sym("o")
	a := term.GV(o)                       // o
	b := term.GV(o, term.Mod)             // mod(o)
	c := term.GV(o, term.Mod, term.Del)   // del(mod(o))
	d := term.GV(o, term.Del)             // del(o)
	e := term.GV(term.Sym("p"), term.Mod) // mod(p)
	if !isSubtermOf(a, c) || !isSubtermOf(b, c) || !isSubtermOf(c, c) {
		t.Errorf("subterm chain broken")
	}
	if isSubtermOf(c, b) || isSubtermOf(d, c) || isSubtermOf(b, e) {
		t.Errorf("false subterms")
	}
	if !subtermComparable(b, c) || !subtermComparable(c, b) || subtermComparable(b, d) {
		t.Errorf("subtermComparable broken")
	}
	if !a.IsObject() || b.IsObject() {
		t.Errorf("IsObject broken")
	}
	if b.Push(term.Del) != c {
		t.Errorf("Push broken")
	}
	if c.VersionID().String() != "del(mod(o))" {
		t.Errorf("VersionID round trip: %s", c.VersionID())
	}
}
