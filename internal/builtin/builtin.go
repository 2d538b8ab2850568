// Package builtin evaluates the arithmetic built-in predicates of the
// verlog language: the comparisons <, <=, >, >=, =, != over expressions
// built from +, -, *, / on numeric OIDs.
//
// The equality predicate doubles as a binding construct, as in classical
// Datalog with arithmetic: in S' = S*1.1 + 200 the variable S' is bound to
// the value of the right-hand side when it is not yet bound. All arithmetic
// is exact rational arithmetic (see term.Rat).
package builtin

import (
	"errors"
	"fmt"

	"verlog/internal/term"
	"verlog/internal/unify"
)

// ErrUnbound reports a built-in that cannot be evaluated because a variable
// is unbound at evaluation time. A correct literal ordering (see package
// safety and the evaluator's planner) never triggers it.
var ErrUnbound = errors.New("builtin: unbound variable")

// TypeError reports a built-in applied to OIDs of the wrong sort, e.g.
// henry * 2.
type TypeError struct {
	Op       string
	Operands []term.OID
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("builtin: operator %s not applicable to %v", e.Op, e.Operands)
}

// EvalExpr evaluates e under the substitution s to a ground OID. Rational
// overflow is reported as term.ErrRatOverflow, never as silent wraparound.
func EvalExpr(e term.Expr, s unify.Subst) (_ term.OID, err error) {
	defer term.RecoverOverflow(&err)
	return evalExpr(e, s)
}

func evalExpr(e term.Expr, s unify.Subst) (term.OID, error) {
	switch x := e.(type) {
	case term.ConstExpr:
		return x.OID, nil
	case term.VarExpr:
		o, ok := s.Lookup(x.V)
		if !ok {
			return term.OID{}, fmt.Errorf("%w: %s", ErrUnbound, x.V)
		}
		return o, nil
	case term.NegExpr:
		v, err := evalExpr(x.E, s)
		if err != nil {
			return term.OID{}, err
		}
		if !v.IsNum() {
			return term.OID{}, &TypeError{Op: "-", Operands: []term.OID{v}}
		}
		return term.FromRat(v.Rat().Neg()), nil
	case term.BinExpr:
		l, err := evalExpr(x.L, s)
		if err != nil {
			return term.OID{}, err
		}
		r, err := evalExpr(x.R, s)
		if err != nil {
			return term.OID{}, err
		}
		return ApplyArith(x.Op, l, r)
	default:
		return term.OID{}, fmt.Errorf("builtin: unknown expression %T", e)
	}
}

// ApplyArith applies an arithmetic operator to two ground OIDs.
func ApplyArith(op term.ArithOp, l, r term.OID) (term.OID, error) {
	if !l.IsNum() || !r.IsNum() {
		return term.OID{}, &TypeError{Op: op.String(), Operands: []term.OID{l, r}}
	}
	a, b := l.Rat(), r.Rat()
	switch op {
	case term.OpAdd:
		return term.FromRat(a.Add(b)), nil
	case term.OpSub:
		return term.FromRat(a.Sub(b)), nil
	case term.OpMul:
		return term.FromRat(a.Mul(b)), nil
	case term.OpDiv:
		q, ok := a.Div(b)
		if !ok {
			return term.OID{}, fmt.Errorf("builtin: division by zero (%s / %s)", l, r)
		}
		return term.FromRat(q), nil
	default:
		return term.OID{}, fmt.Errorf("builtin: unknown operator %v", op)
	}
}

// Solve decides a built-in atom under s. For the equality operator with
// exactly one side being a single unbound variable, Solve evaluates the
// other side and binds the variable in s (and reports true).
func Solve(a term.BuiltinAtom, s unify.Subst) (bool, error) {
	if a.Op == term.OpEq {
		for _, side := range [2][2]term.Expr{{a.L, a.R}, {a.R, a.L}} {
			if v, ok := unboundVar(side[0], s); ok {
				o, err := EvalExpr(side[1], s)
				if err != nil {
					return false, err
				}
				s[v] = o
				return true, nil
			}
		}
	}
	l, err := EvalExpr(a.L, s)
	if err != nil {
		return false, err
	}
	r, err := EvalExpr(a.R, s)
	if err != nil {
		return false, err
	}
	return Compare(a.Op, l, r)
}

// Compare decides a comparison between two ground OIDs; with ApplyArith it
// is what the compiled expression evaluator (internal/eval) runs built-ins
// on, without a substitution.
func Compare(op term.CmpOp, l, r term.OID) (bool, error) {
	switch op {
	case term.OpEq:
		return l == r, nil
	case term.OpNe:
		return l != r, nil
	}
	// Ordering comparisons need operands of the same sort; numbers compare
	// by value, symbols and strings lexicographically.
	if l.Sort() != r.Sort() {
		return false, &TypeError{Op: op.String(), Operands: []term.OID{l, r}}
	}
	c := l.Compare(r)
	switch op {
	case term.OpLt:
		return c < 0, nil
	case term.OpLe:
		return c <= 0, nil
	case term.OpGt:
		return c > 0, nil
	case term.OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("builtin: unknown comparison %v", op)
	}
}

// unboundVar reports whether e is a bare variable with no binding in s.
func unboundVar(e term.Expr, s unify.Subst) (term.Var, bool) {
	v, ok := e.(term.VarExpr)
	if !ok {
		return "", false
	}
	if _, bound := s.Lookup(v.V); bound {
		return "", false
	}
	return v.V, true
}
