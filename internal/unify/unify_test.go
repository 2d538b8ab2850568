package unify

import (
	"testing"
	"testing/quick"

	"verlog/internal/term"
)

func TestObjTermsSorted(t *testing.T) {
	cases := []struct {
		a, b term.ObjTerm
		want bool
	}{
		{term.Var("X"), term.Var("Y"), true},
		{term.Var("X"), term.Sym("henry"), true},
		{term.Sym("henry"), term.Var("X"), true},
		{term.Sym("henry"), term.Sym("henry"), true},
		{term.Sym("henry"), term.Sym("bob"), false},
		{term.Int(1), term.Int(1), true},
		{term.Int(1), term.Int(2), false},
		{term.Int(1), term.Sym("1"), false},
	}
	for _, c := range cases {
		if got := ObjTerms(c.a, c.b); got != c.want {
			t.Errorf("ObjTerms(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := ObjTerms(c.b, c.a); got != c.want {
			t.Errorf("ObjTerms not symmetric for (%v, %v)", c.a, c.b)
		}
	}
}

func TestVersionIDsSorted(t *testing.T) {
	mod := func(b term.ObjTerm) term.VersionID { return term.NewVersionID(b, term.Mod) }
	del := func(b term.ObjTerm) term.VersionID { return term.NewVersionID(b, term.Del) }
	cases := []struct {
		a, b term.VersionID
		want bool
	}{
		{mod(term.Var("E")), mod(term.Sym("phil")), true},
		{mod(term.Var("E")), del(term.Var("F")), false},                                   // different functor
		{term.NewVersionID(term.Var("E")), mod(term.Sym("phil")), false},                  // var vs functor term
		{mod(term.Var("E")), term.NewVersionID(term.Var("F"), term.Mod, term.Del), false}, // depth differs
		{term.NewVersionID(term.Sym("a"), term.Mod, term.Del), term.NewVersionID(term.Sym("a"), term.Mod, term.Del), true},
		{term.NewVersionID(term.Sym("a")), term.NewVersionID(term.Sym("b")), false},
	}
	for _, c := range cases {
		if got := VersionIDs(c.a, c.b); got != c.want {
			t.Errorf("VersionIDs(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := VersionIDs(c.b, c.a); got != c.want {
			t.Errorf("VersionIDs not symmetric for (%s, %s)", c.a, c.b)
		}
	}
}

// TestUnifyReflexiveOnGround: any ground version-id-term unifies with
// itself and unification over ground terms coincides with equality.
func TestUnifyReflexiveOnGround(t *testing.T) {
	f := func(name string, kinds []bool) bool {
		if name == "" {
			name = "o"
		}
		var path []term.UpdateKind
		for _, k := range kinds {
			if k {
				path = append(path, term.Mod)
			} else {
				path = append(path, term.Del)
			}
		}
		v := term.NewVersionID(term.Sym(name), path...)
		return VersionIDs(v, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
