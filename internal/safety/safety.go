// Package safety checks update-rules for safety in the sense of Ullman
// (Principles of Database and Knowledge-Base Systems, Vol. I), adapted to
// the verlog language: every variable of a rule must be limited, i.e.
//
//   - it occurs in a positive body version-term or update-term (at the base
//     of the version-id-term, as a method argument, or as a result), or
//   - it is equated, via the built-in =, with an expression all of whose
//     variables are limited.
//
// Safe rules guarantee that only finitely many ground instances fire and
// that negated literals and comparisons are fully bound when evaluated —
// the property Section 2.1 of the paper relies on for termination.
//
// The package also re-checks the structural invariants the parser enforces
// (no exists in heads, delete-all only with del, modify carries a result
// pair), so programs constructed programmatically get the same guarantees.
package safety

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"verlog/internal/term"
)

// ViolationKind classifies a safety violation, for the diagnostics layer.
type ViolationKind uint8

// The violation kinds.
const (
	// BadDeleteAll: delete-all with a non-del kind, or in a rule body.
	BadDeleteAll ViolationKind = iota
	// ExistsHead: the reserved exists method in a rule head.
	ExistsHead
	// BadModPair: a modify without a result pair, or a pair elsewhere.
	BadModPair
	// BadWildcard: the any(...) wildcard in an update-rule.
	BadWildcard
	// UnlimitedVar: a variable not limited by any positive body term.
	UnlimitedVar
)

// Violation is one structured safety violation inside a rule.
type Violation struct {
	Kind ViolationKind
	// Var is the offending variable for UnlimitedVar violations.
	Var term.Var
	// Pos locates the violation: the variable's first occurrence, the
	// offending literal, or the rule itself.
	Pos term.Pos
	// Msg is the human-readable description.
	Msg string
}

// RuleError describes a safety violation in one rule.
type RuleError struct {
	Rule  string // rule label
	Index int    // rule position in the program
	Msg   string
	// Pos locates the first violation (zero for programmatic rules).
	Pos term.Pos
}

func (e *RuleError) Error() string {
	return fmt.Sprintf("safety: rule %s: %s", e.Rule, e.Msg)
}

// Program checks every rule of p and returns all violations joined.
func Program(p *term.Program) error {
	var errs []error
	for i, r := range p.Rules {
		if err := check(r, i); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// check wraps RuleViolations into the classic error form: the first
// structural violation alone, or every unlimited variable aggregated.
func check(r term.Rule, index int) error {
	vs := RuleViolations(r)
	if len(vs) == 0 {
		return nil
	}
	if vs[0].Kind != UnlimitedVar {
		return &RuleError{Rule: r.Label(index), Index: index, Msg: vs[0].Msg, Pos: vs[0].Pos}
	}
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = string(v.Var)
	}
	return &RuleError{
		Rule: r.Label(index), Index: index, Pos: vs[0].Pos,
		Msg: fmt.Sprintf("unlimited variable(s) %s: every variable must occur in a positive body version- or update-term, or be equated to a bound expression", strings.Join(names, ", ")),
	}
}

// RuleViolations collects every safety violation in r: all structural
// problems in source order, then every unlimited variable (sorted by
// name). An empty result means the rule is safe. This is the shared core
// behind Program and the analysis package's diagnostic pass.
func RuleViolations(r term.Rule) []Violation {
	var vs []Violation
	structural := func(kind ViolationKind, pos term.Pos, format string, args ...any) {
		vs = append(vs, Violation{Kind: kind, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}

	// Structural invariants.
	if r.Head.All && r.Head.Kind != term.Del {
		structural(BadDeleteAll, r.Pos, "delete-all head requires del, found %s", r.Head.Kind)
	}
	if !r.Head.All {
		if r.Head.App.Method == term.ExistsMethod {
			structural(ExistsHead, r.Pos, "the system method %q may not occur in a rule head", term.ExistsMethod)
		}
		if r.Head.Kind == term.Mod && r.Head.NewResult == nil {
			structural(BadModPair, r.Pos, "modify head needs a result pair (old, new)")
		}
		if r.Head.Kind != term.Mod && r.Head.NewResult != nil {
			structural(BadModPair, r.Pos, "only modify heads carry a result pair")
		}
	}
	if r.Head.V.Any {
		structural(BadWildcard, r.Pos, "the any(...) wildcard is not allowed in update-rules")
	}
	for _, l := range r.Body {
		pos := l.Pos
		if !pos.IsValid() {
			pos = r.Pos
		}
		switch a := l.Atom.(type) {
		case term.UpdateAtom:
			if a.All {
				structural(BadDeleteAll, pos, "delete-all is only allowed in rule heads")
			}
			if a.V.Any {
				structural(BadWildcard, pos, "the any(...) wildcard is not allowed in update-rules")
			}
		case term.VersionAtom:
			if a.V.Any {
				structural(BadWildcard, pos, "the any(...) wildcard is only allowed in queries and derived rules")
			}
		}
	}

	// Limitedness analysis.
	limited := map[term.Var]bool{}
	mark := func(t term.ObjTerm) {
		if v, ok := t.(term.Var); ok {
			limited[v] = true
		}
	}
	for _, l := range r.Body {
		if l.Neg {
			continue
		}
		switch a := l.Atom.(type) {
		case term.VersionAtom:
			mark(a.V.Base)
			for _, arg := range a.App.Args {
				mark(arg)
			}
			mark(a.App.Result)
		case term.UpdateAtom:
			mark(a.V.Base)
			for _, arg := range a.App.Args {
				mark(arg)
			}
			mark(a.App.Result)
			if a.NewResult != nil {
				mark(a.NewResult)
			}
		}
	}
	// Propagate through = built-ins until a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if l.Neg {
				continue
			}
			b, ok := l.Atom.(term.BuiltinAtom)
			if !ok || b.Op != term.OpEq {
				continue
			}
			if v, ok := singleVar(b.L); ok && !limited[v] && allLimited(b.R, limited) {
				limited[v] = true
				changed = true
			}
			if v, ok := singleVar(b.R); ok && !limited[v] && allLimited(b.L, limited) {
				limited[v] = true
				changed = true
			}
		}
	}

	var unlimited []string
	for v := range r.Vars() {
		if !limited[v] {
			unlimited = append(unlimited, string(v))
		}
	}
	sort.Strings(unlimited)
	for _, name := range unlimited {
		v := term.Var(name)
		vs = append(vs, Violation{
			Kind: UnlimitedVar, Var: v, Pos: r.PosOf(v),
			Msg: fmt.Sprintf("unbound variable %s: it must occur in a positive body version- or update-term, or be equated to a bound expression", name),
		})
	}
	return vs
}

func singleVar(e term.Expr) (term.Var, bool) {
	v, ok := e.(term.VarExpr)
	if !ok {
		return "", false
	}
	return v.V, true
}

func allLimited(e term.Expr, limited map[term.Var]bool) bool {
	for _, v := range term.ExprVars(e, nil) {
		if !limited[v] {
			return false
		}
	}
	return true
}
