package spec

import (
	"errors"
	"fmt"

	"verlog/internal/builtin"
	"verlog/internal/term"
)

// subst is a substitution binding variables to OIDs: §3's truth of a term
// is its truth under one. The nil map is the empty substitution.
type subst map[term.Var]term.OID

// clone returns an independent copy of the substitution with room for a few
// extra bindings.
func (s subst) clone() subst {
	out := make(subst, len(s)+4)
	for k, v := range s {
		out[k] = v
	}
	return out
}

// lookup returns the binding for v, if any.
func (s subst) lookup(v term.Var) (term.OID, bool) {
	o, ok := s[v]
	return o, ok
}

// resolveObj applies the substitution to an object-id-term. The second
// result reports whether the outcome is ground.
func (s subst) resolveObj(t term.ObjTerm) (term.ObjTerm, bool) {
	switch x := t.(type) {
	case term.OID:
		return x, true
	case term.Var:
		if o, ok := s[x]; ok {
			return o, true
		}
		return x, false
	default:
		return t, false
	}
}

// resolveOID applies the substitution expecting a ground result; ok is
// false when the term is an unbound variable.
func (s subst) resolveOID(t term.ObjTerm) (term.OID, bool) {
	r, ground := s.resolveObj(t)
	if !ground {
		return term.OID{}, false
	}
	return r.(term.OID), true
}

// resolveVID applies the substitution to a version-id-term, returning the
// ground VID; ok is false when the base is an unbound variable or the term
// is an any(...) wildcard, which never denotes a single version.
func (s subst) resolveVID(v term.VersionID) (term.GVID, bool) {
	if v.Any {
		return term.GVID{}, false
	}
	o, ok := s.resolveOID(v.Base)
	if !ok {
		return term.GVID{}, false
	}
	return term.GVID{Object: o, Path: v.Path}, true
}

// matchObj unifies pattern t (under s) with the ground OID o, extending s
// in place. It reports success; on failure s is unchanged.
func (s subst) matchObj(t term.ObjTerm, o term.OID) bool {
	switch x := t.(type) {
	case term.OID:
		return x == o
	case term.Var:
		if bound, ok := s[x]; ok {
			return bound == o
		}
		s[x] = o
		return true
	default:
		return false
	}
}

// matchArgs unifies a slice of argument patterns with ground argument OIDs,
// extending s in place. It reports success; on failure s may hold partial
// bindings, so callers match against a clone when backtracking.
func (s subst) matchArgs(pats []term.ObjTerm, args []term.OID) bool {
	if len(pats) != len(args) {
		return false
	}
	for i, p := range pats {
		if !s.matchObj(p, args[i]) {
			return false
		}
	}
	return true
}

// errUnbound reports a built-in that cannot be evaluated because a variable
// is unbound at evaluation time; schedule never lets that happen.
var errUnbound = errors.New("spec: unbound variable")

// evalExpr evaluates e under s to a ground OID with the engine's arithmetic
// (builtin.ApplyArith). Rational overflow is reported as
// term.ErrRatOverflow, never as silent wraparound.
func evalExpr(e term.Expr, s subst) (_ term.OID, err error) {
	defer term.RecoverOverflow(&err)
	return evalExprRec(e, s)
}

func evalExprRec(e term.Expr, s subst) (term.OID, error) {
	switch x := e.(type) {
	case term.ConstExpr:
		return x.OID, nil
	case term.VarExpr:
		o, ok := s.lookup(x.V)
		if !ok {
			return term.OID{}, fmt.Errorf("%w: %s", errUnbound, x.V)
		}
		return o, nil
	case term.NegExpr:
		v, err := evalExprRec(x.E, s)
		if err != nil {
			return term.OID{}, err
		}
		if !v.IsNum() {
			return term.OID{}, &builtin.TypeError{Op: "-", Operands: []term.OID{v}}
		}
		return term.FromRat(v.Rat().Neg()), nil
	case term.BinExpr:
		l, err := evalExprRec(x.L, s)
		if err != nil {
			return term.OID{}, err
		}
		r, err := evalExprRec(x.R, s)
		if err != nil {
			return term.OID{}, err
		}
		return builtin.ApplyArith(x.Op, l, r)
	default:
		return term.OID{}, fmt.Errorf("spec: unknown expression %T", e)
	}
}

// solveBuiltin decides a built-in atom under s. For the equality operator
// with exactly one side being a single unbound variable, it evaluates the
// other side and binds the variable in s (and reports true).
func solveBuiltin(a term.BuiltinAtom, s subst) (bool, error) {
	if a.Op == term.OpEq {
		for _, side := range [2][2]term.Expr{{a.L, a.R}, {a.R, a.L}} {
			if v, ok := unboundVar(side[0], s); ok {
				o, err := evalExpr(side[1], s)
				if err != nil {
					return false, err
				}
				s[v] = o
				return true, nil
			}
		}
	}
	l, err := evalExpr(a.L, s)
	if err != nil {
		return false, err
	}
	r, err := evalExpr(a.R, s)
	if err != nil {
		return false, err
	}
	return builtin.Compare(a.Op, l, r)
}

// unboundVar reports whether e is a bare variable with no binding in s.
func unboundVar(e term.Expr, s subst) (term.Var, bool) {
	v, ok := e.(term.VarExpr)
	if !ok {
		return "", false
	}
	if _, bound := s.lookup(v.V); bound {
		return "", false
	}
	return v.V, true
}

// isSubtermOf reports whether g is a subterm of h: same object and g's path
// an inner prefix of h's.
func isSubtermOf(g, h term.GVID) bool {
	return g.Object == h.Object && h.Path.HasPrefix(g.Path)
}

// subtermComparable reports whether g and h are subterm-ordered either way
// (the version-linearity relation of Section 5).
func subtermComparable(g, h term.GVID) bool {
	return isSubtermOf(g, h) || isSubtermOf(h, g)
}
