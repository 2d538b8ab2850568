// Package builtin is the arithmetic of the verlog language's built-in
// predicates: the operators +, -, *, / on numeric OIDs and the comparisons
// <, <=, >, >=, =, != between ground OIDs. All arithmetic is exact rational
// arithmetic (see term.Rat). The engine's compiled expressions
// (internal/eval) and the spec oracle's substitution evaluator
// (internal/spec) both compute with it; how a built-in binds a variable is
// each evaluator's own.
package builtin

import (
	"fmt"

	"verlog/internal/term"
)

// TypeError reports a built-in applied to OIDs of the wrong sort, e.g.
// henry * 2.
type TypeError struct {
	Op       string
	Operands []term.OID
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("builtin: operator %s not applicable to %v", e.Op, e.Operands)
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

// Compare decides a comparison between two ground OIDs.
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
