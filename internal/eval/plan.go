// Package eval implements the bottom-up evaluation of update-programs:
// the truth relations of Section 3, the three-step immediate consequence
// operator T_P, stratum-wise semi-naive fixpoint iteration (Section 4), the
// version-linearity run-time check and the construction of the updated
// object base (Section 5). One evaluator: rule bodies are compiled into
// match plans (compile.go) in the order this file's planner picks, and run
// by the executor (exec.go).
package eval

import (
	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// binds returns the variables a positive occurrence of the literal binds.
func binds(l term.Literal) []term.Var {
	if l.Neg {
		return nil
	}
	var out []term.Var
	add := func(t term.ObjTerm) {
		if v, ok := t.(term.Var); ok {
			out = append(out, v)
		}
	}
	switch a := l.Atom.(type) {
	case term.VersionAtom:
		add(a.V.Base)
		for _, arg := range a.App.Args {
			add(arg)
		}
		add(a.App.Result)
	case term.UpdateAtom:
		add(a.V.Base)
		for _, arg := range a.App.Args {
			add(arg)
		}
		add(a.App.Result)
		if a.NewResult != nil {
			add(a.NewResult)
		}
	case term.BuiltinAtom:
		if a.Op != term.OpEq {
			return nil
		}
		// X = expr binds X (in either direction); the planner checks
		// separately that the other side is evaluable.
		if v, ok := a.L.(term.VarExpr); ok {
			out = append(out, v.V)
		}
		if v, ok := a.R.(term.VarExpr); ok {
			out = append(out, v.V)
		}
	}
	return out
}

// needs returns the variables that must be bound before the literal can be
// evaluated as a filter (negated literal or comparison), or nil when the
// literal can generate bindings itself.
func needs(l term.Literal) []term.Var {
	collect := func(a term.Atom) []term.Var {
		var out []term.Var
		add := func(t term.ObjTerm) {
			if v, ok := t.(term.Var); ok {
				out = append(out, v)
			}
		}
		switch x := a.(type) {
		case term.VersionAtom:
			add(x.V.Base)
			for _, arg := range x.App.Args {
				add(arg)
			}
			add(x.App.Result)
		case term.UpdateAtom:
			add(x.V.Base)
			for _, arg := range x.App.Args {
				add(arg)
			}
			add(x.App.Result)
			if x.NewResult != nil {
				add(x.NewResult)
			}
		case term.BuiltinAtom:
			return term.ExprVars(x.R, term.ExprVars(x.L, nil))
		}
		return out
	}
	if l.Neg {
		return collect(l.Atom)
	}
	if b, ok := l.Atom.(term.BuiltinAtom); ok {
		return term.ExprVars(b.R, term.ExprVars(b.L, nil))
	}
	return nil // positive version-/update-terms can always generate
}

// filterReady reports whether a filter literal (negated atom or built-in)
// can be evaluated given the bound variables. An equality whose one side is
// a bare variable is ready as soon as the other side is fully bound: Solve
// will bind the variable.
func filterReady(l term.Literal, bound map[term.Var]bool) bool {
	allBound := func(vs []term.Var) bool {
		for _, v := range vs {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	if !l.Neg {
		if b, ok := l.Atom.(term.BuiltinAtom); ok && b.Op == term.OpEq {
			if _, bare := b.L.(term.VarExpr); bare && allBound(term.ExprVars(b.R, nil)) {
				return true
			}
			if _, bare := b.R.(term.VarExpr); bare && allBound(term.ExprVars(b.L, nil)) {
				return true
			}
		}
	}
	return allBound(needs(l))
}

// deltaSeedable reports whether the literal's supporting facts can be
// produced within the stratum currently being evaluated: positive
// version-terms over versions (non-empty path) and positive ins-update-
// terms. Facts of plain objects never change; del/mod body update-terms
// and negated literals are frozen in-stratum by stratification conditions
// (c) and (d).
func deltaSeedable(l term.Literal) bool {
	if l.Neg {
		return false
	}
	switch a := l.Atom.(type) {
	case term.VersionAtom:
		return a.V.Path.Len() > 0
	case term.UpdateAtom:
		return a.Kind == term.Ins
	default:
		return false
	}
}

// costEstimator estimates how many candidates a generator literal
// enumerates; lower is better. baseBound tells whether the literal's
// version base is already bound when it runs.
type costEstimator func(l term.Literal, baseBound bool) int

// staticCost ignores statistics: bound-base generators are cheap, the rest
// tie (preserving source order through the stable greedy choice).
func staticCost(l term.Literal, baseBound bool) int {
	if baseBound {
		return 0
	}
	return 1
}

// statsCost orders unbound-base generators by the cardinality of the
// (path, method) index they will scan — classical selectivity-based join
// ordering. Bound-base lookups are near-free.
func statsCost(base *objectbase.Base) costEstimator {
	return func(l term.Literal, baseBound bool) int {
		if baseBound {
			return 0
		}
		var v term.VersionID
		var method string
		switch a := l.Atom.(type) {
		case term.VersionAtom:
			v, method = a.V, a.App.Method
		case term.UpdateAtom:
			switch a.Kind {
			case term.Ins:
				v, method = a.V.Push(term.Ins), a.App.Method
			case term.Del:
				v, method = a.V.Push(term.Del), term.ExistsMethod
			default:
				v, method = a.V.Push(term.Mod), a.App.Method
			}
		default:
			return 1
		}
		if v.Any {
			// Wildcards scan every path; estimate pessimistically.
			return 1 << 20
		}
		return 1 + base.CountVIDsWith(v.Path, method)
	}
}

// indexedCost refines statsCost with literal-index selectivity: a path-0
// version-term whose result (or first argument) is a constant will execute
// as an index probe, so its cardinality is the probe bucket's size, not the
// whole (path, method) population. Bound-variable results also probe at
// run time, but their values are unknown at plan time, so they keep the
// scan estimate. The literal index is fetched when the first such literal
// shows up, and the estimate builds the one partition the literal names —
// the partition its probe will read: programs that address every version by
// a bound base never cause one to be built.
func indexedCost(base *objectbase.Base) costEstimator {
	var idx *objectbase.LiteralIndex
	return indexedCostWith(base, func() *objectbase.LiteralIndex {
		if idx == nil {
			idx = base.Index()
		}
		return idx
	})
}

// indexedCostWith is indexedCost reading the index the caller will probe
// (on an unfrozen base every Index call returns a new one).
func indexedCostWith(base *objectbase.Base, index func() *objectbase.LiteralIndex) costEstimator {
	scan := statsCost(base)
	return func(l term.Literal, baseBound bool) int {
		c := scan(l, baseBound)
		if baseBound {
			return c
		}
		a, ok := l.Atom.(term.VersionAtom)
		if !ok || a.V.Any || a.V.Path.Len() != 0 {
			return c
		}
		if r, isOID := a.App.Result.(term.OID); isOID {
			if p := 1 + index().CountVIDsWithResult(a.V.Path, a.App.Method, r); p < c {
				c = p
			}
		}
		if len(a.App.Args) > 0 {
			if a0, isOID := a.App.Args[0].(term.OID); isOID {
				if p := 1 + index().CountVIDsWithArg(a.V.Path, a.App.Method, a0); p < c {
					c = p
				}
			}
		}
		return c
	}
}

// deltaRowEstimate is the planner's cardinality heuristic for a semi-naive
// delta seed: per-iteration deltas are a small fraction of the full
// population (they hold only the facts added by the previous iteration),
// so the estimate shrinks the full count instead of ignoring the
// distinction. The exact size is unknowable at plan time.
func deltaRowEstimate(full int) int { return 1 + full/16 }

// greedyOrder is the planner: filters run as soon as their variables are
// bound — which safe rules always allow — then the cheapest generator (per
// the estimator), source order breaking ties. When seed >= 0 that
// body literal is forced first (the semi-naive delta seed) and the rest
// are ordered given its bindings — so a delta-restricted evaluation gets
// an order chosen for delta-sized input, not the full-scan order with one
// literal hoisted.
func greedyOrder(r term.Rule, est costEstimator, seed int) []int {
	n := len(r.Body)
	var order []int
	used := make([]bool, n)
	bound := map[term.Var]bool{}
	if seed >= 0 {
		used[seed] = true
		order = append(order, seed)
		for _, v := range binds(r.Body[seed]) {
			bound[v] = true
		}
	}
	for len(order) < n {
		pick := -1
		// 1. Any evaluable filter or binding equality.
		for i, l := range r.Body {
			if used[i] {
				continue
			}
			if l.Neg || isBuiltin(l) {
				if filterReady(l, bound) {
					pick = i
					break
				}
				continue
			}
		}
		// 2. The cheapest generator.
		if pick < 0 {
			best := -1
			for i, l := range r.Body {
				if used[i] || l.Neg || isBuiltin(l) {
					continue
				}
				c := est(l, baseBound(l, bound))
				if pick < 0 || c < best {
					pick, best = i, c
				}
			}
		}
		// 3. Nothing evaluable: safety was violated; keep source order and
		// let evaluation surface the unbound-variable error.
		if pick < 0 {
			for i := range r.Body {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		used[pick] = true
		order = append(order, pick)
		for _, v := range binds(r.Body[pick]) {
			bound[v] = true
		}
	}
	return order
}

func isBuiltin(l term.Literal) bool {
	_, ok := l.Atom.(term.BuiltinAtom)
	return ok
}

func baseBound(l term.Literal, bound map[term.Var]bool) bool {
	var base term.ObjTerm
	switch a := l.Atom.(type) {
	case term.VersionAtom:
		base = a.V.Base
	case term.UpdateAtom:
		base = a.V.Base
	default:
		return false
	}
	if v, ok := base.(term.Var); ok {
		return bound[v]
	}
	return true
}
