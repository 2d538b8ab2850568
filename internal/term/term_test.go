package term

import (
	"testing"
	"testing/quick"
)

func TestOIDSortsAndString(t *testing.T) {
	cases := []struct {
		o    OID
		want string
	}{
		{Sym("henry"), "henry"},
		{Int(250), "250"},
		{Num(551, 2), "275.5"},
		{Str("a b"), `"a b"`},
		{Str(""), `""`},
		{Int(-3), "-3"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.o, got, c.want)
		}
	}
	if Sym("a").Sort() != SortSym || Int(1).Sort() != SortNum || Str("x").Sort() != SortStr {
		t.Errorf("sorts wrong")
	}
	if !Int(1).IsNum() || Sym("a").IsNum() {
		t.Errorf("IsNum wrong")
	}
}

func TestOIDComparability(t *testing.T) {
	// OIDs must work as map keys: equal values collide, distinct do not.
	m := map[OID]int{}
	m[Sym("a")] = 1
	m[Int(1)] = 2
	m[Num(1, 2)] = 3
	m[Str("a")] = 4
	m[Sym("a")] = 10
	if len(m) != 4 || m[Sym("a")] != 10 {
		t.Errorf("map = %v", m)
	}
	// Num normalizes: 2/4 == 1/2.
	if Num(2, 4) != Num(1, 2) {
		t.Errorf("rationals not normalized for equality")
	}
}

func TestOIDCompareTotalOrder(t *testing.T) {
	ordered := []OID{Int(-1), Int(1), Num(3, 2), Int(2), Sym("a"), Sym("b"), Str("a")}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestOIDAccessorPanics(t *testing.T) {
	assertPanics(t, "Rat on symbol", func() { Sym("a").Rat() })
	assertPanics(t, "Name on number", func() { Int(1).Name() })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestPathOps(t *testing.T) {
	p := PathOf(Mod, Del, Ins) // ins(del(mod(x)))
	if p.Len() != 3 || p.Outer() != Ins {
		t.Fatalf("path %q", p)
	}
	q, k := p.Pop()
	if k != Ins || q != PathOf(Mod, Del) {
		t.Errorf("Pop = %q, %v", q, k)
	}
	if !p.HasPrefix(q) || !p.HasPrefix(Path("")) || !p.HasPrefix(p) {
		t.Errorf("HasPrefix broken")
	}
	if q.HasPrefix(p) {
		t.Errorf("prefix inverted")
	}
	if got := q.Push(Ins); got != p {
		t.Errorf("Push = %q", got)
	}
	if Path("").Outer() != 0 {
		t.Errorf("empty Outer")
	}
	assertPanics(t, "Pop empty", func() { Path("").Pop() })
	assertPanics(t, "invalid kind", func() { PathOf(UpdateKind('x')) })
	assertPanics(t, "invalid push", func() { Path("").Push(UpdateKind('q')) })
}

func TestVersionIDStringAndSubterms(t *testing.T) {
	v := NewVersionID(Var("E"), Mod, Del)
	if got := v.String(); got != "del(mod(E))" {
		t.Errorf("String = %q", got)
	}
	subs := v.Subterms()
	want := []string{"E", "mod(E)", "del(mod(E))"}
	if len(subs) != len(want) {
		t.Fatalf("subterms = %v", subs)
	}
	for i, s := range subs {
		if s.String() != want[i] {
			t.Errorf("subterm %d = %q, want %q", i, s, want[i])
		}
	}
	if v.Ground() {
		t.Errorf("variable base reported ground")
	}
	g := NewVersionID(Sym("henry"), Mod)
	if !g.Ground() || g.GVID() != GV(Sym("henry"), Mod) {
		t.Errorf("GVID conversion broken")
	}
	assertPanics(t, "GVID on var", func() { v.GVID() })
}

func TestArgsEncodeDecodeRoundTrip(t *testing.T) {
	cases := [][]OID{
		nil,
		{Sym("a")},
		{Int(1), Int(-2), Num(1, 3)},
		{Str(""), Str("x:y"), Str("7:"), Sym("s7")},
		{Str("embedded \" quote"), Str("new\nline")},
	}
	for _, args := range cases {
		enc := EncodeOIDs(args)
		dec := enc.Decode()
		if len(dec) != len(args) {
			t.Fatalf("round trip length: %v -> %v", args, dec)
		}
		for i := range args {
			if dec[i] != args[i] {
				t.Errorf("round trip: %v -> %v", args, dec)
			}
		}
	}
	if !NoArgs.Empty() || NoArgs.Len() != 0 {
		t.Errorf("NoArgs not empty")
	}
	if EncodeOIDs([]OID{Int(2026), Str("July")}).String() != `@2026,"July"` {
		t.Errorf("Args.String: %s", EncodeOIDs([]OID{Int(2026), Str("July")}))
	}
}

func TestArgsInjective(t *testing.T) {
	// Distinct argument tuples must encode distinctly (the encoding keys
	// index maps). Property-tested over symbol/string payloads designed to
	// collide under naive concatenation.
	f := func(a, b string, asStrA, asStrB bool) bool {
		mk := func(s string, str bool) OID {
			if str {
				return Str(s)
			}
			return Sym(s)
		}
		x := EncodeOIDs([]OID{mk(a, asStrA)})
		y := EncodeOIDs([]OID{mk(b, asStrB)})
		same := a == b && asStrA == asStrB
		return (x == y) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Concatenation attack: ["ab"] vs ["a","b"].
	if EncodeOIDs([]OID{Sym("ab")}) == EncodeOIDs([]OID{Sym("a"), Sym("b")}) {
		t.Errorf("tuple boundaries not preserved")
	}
}

func TestFactStringAndCompare(t *testing.T) {
	f := Fact{
		V:      GV(Sym("henry"), Mod),
		Method: "salary",
		Args:   EncodeOIDs([]OID{Int(2026)}),
		Result: Num(551, 2),
	}
	if got := f.String(); got != "mod(henry).salary@2026 -> 275.5" {
		t.Errorf("String = %q", got)
	}
	g := f
	g.Result = Int(300)
	if f.Compare(g) >= 0 || g.Compare(f) <= 0 || f.Compare(f) != 0 {
		t.Errorf("Compare broken")
	}
	if !NewFact(GV(Sym("x")), ExistsMethod, Sym("x")).IsExists() {
		t.Errorf("IsExists broken")
	}
	if f.WithV(GV(Sym("henry"))).V != GV(Sym("henry")) {
		t.Errorf("WithV broken")
	}
	if f.Key().String() != "salary@2026" {
		t.Errorf("Key.String = %q", f.Key())
	}
}

func TestRuleStringAndVars(t *testing.T) {
	r := Rule{
		Head: UpdateAtom{
			Kind:      Mod,
			V:         NewVersionID(Var("E")),
			App:       MethodApp{Method: "sal", Result: Var("S")},
			NewResult: Var("S'"),
		},
		Body: []Literal{
			{Atom: VersionAtom{V: NewVersionID(Var("E")), App: MethodApp{Method: "isa", Result: Sym("empl")}}},
			{Atom: VersionAtom{V: NewVersionID(Var("E")), App: MethodApp{Method: "sal", Result: Var("S")}}},
			{Atom: BuiltinAtom{Op: OpEq, L: VarExpr{V: "S'"},
				R: BinExpr{Op: OpMul, L: VarExpr{V: "S"}, R: ConstExpr{OID: Num(11, 10)}}}},
		},
		Name: "raise",
	}
	want := "mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 1.1."
	if got := r.String(); got != want {
		t.Errorf("String:\n got %q\nwant %q", got, want)
	}
	vars := r.Vars()
	for _, v := range []Var{"E", "S", "S'"} {
		if !vars[v] {
			t.Errorf("missing var %s in %v", v, vars)
		}
	}
	if len(vars) != 3 {
		t.Errorf("vars = %v", vars)
	}
	if r.Label(3) != "raise" {
		t.Errorf("Label with name")
	}
	if (Rule{Line: 7}).Label(0) != "rule@line7" || (Rule{}).Label(2) != "rule#3" {
		t.Errorf("Label fallbacks")
	}
}

func TestUpdateAtomString(t *testing.T) {
	cases := []struct {
		a    UpdateAtom
		want string
	}{
		{UpdateAtom{Kind: Ins, V: NewVersionID(Sym("x"), Mod), App: MethodApp{Method: "isa", Result: Sym("hpe")}},
			"ins[mod(x)].isa -> hpe"},
		{UpdateAtom{Kind: Del, V: NewVersionID(Var("E"), Mod), All: true},
			"del[mod(E)].*"},
		{UpdateAtom{Kind: Mod, V: NewVersionID(Var("E")), App: MethodApp{Method: "sal", Result: Var("S")}, NewResult: Var("T")},
			"mod[E].sal -> (S, T)"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	// Target replaces [V] by (V).
	if got := cases[0].a.Target().String(); got != "ins(mod(x))" {
		t.Errorf("Target = %q", got)
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{BinExpr{Op: OpAdd, L: BinExpr{Op: OpMul, L: VarExpr{V: "S"}, R: ConstExpr{OID: Num(11, 10)}}, R: ConstExpr{OID: Int(200)}},
			"S * 1.1 + 200"},
		{BinExpr{Op: OpMul, L: BinExpr{Op: OpAdd, L: VarExpr{V: "S"}, R: ConstExpr{OID: Int(2)}}, R: ConstExpr{OID: Int(3)}},
			"(S + 2) * 3"},
		{BinExpr{Op: OpSub, L: VarExpr{V: "A"}, R: BinExpr{Op: OpSub, L: VarExpr{V: "B"}, R: VarExpr{V: "C"}}},
			"A - (B - C)"},
		{NegExpr{E: BinExpr{Op: OpAdd, L: VarExpr{V: "A"}, R: VarExpr{V: "B"}}},
			"-(A + B)"},
		{NegExpr{E: VarExpr{V: "A"}}, "-A"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	vs := ExprVars(cases[2].e, nil)
	if len(vs) != 3 {
		t.Errorf("ExprVars = %v", vs)
	}
}

func TestUpdateKindString(t *testing.T) {
	if Ins.String() != "ins" || Del.String() != "del" || Mod.String() != "mod" {
		t.Errorf("kind strings")
	}
	if !Ins.Valid() || UpdateKind('z').Valid() {
		t.Errorf("Valid broken")
	}
}
