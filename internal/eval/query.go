package eval

import (
	"sort"
	"strings"

	"verlog/internal/objectbase"
	"verlog/internal/term"
	"verlog/internal/unify"
)

// Binding is one answer to a query: the bindings of the query's variables.
type Binding map[term.Var]term.OID

// String renders the binding deterministically, e.g. "E=phil, S=4600".
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for v := range b {
		keys = append(keys, string(v))
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + b[term.Var(k)].String()
	}
	return strings.Join(parts, ", ")
}

// sortedAnswers returns the distinct answers of a query, collected under
// their rendering (Binding.String, made once per answer), in its order.
func sortedAnswers(rows map[string]Binding) []Binding {
	if len(rows) == 0 {
		return nil
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Binding, len(keys))
	for i, k := range keys {
		out[i] = rows[k]
	}
	return out
}

// Query evaluates a conjunction of body literals against an object base
// (typically a fixpoint result, where every derived version is visible, or
// a finalized base) and returns the distinct variable bindings, sorted.
// Section 2.2 notes that "during an evaluation of an update-program all
// versions created during that evaluation can be used to derive the
// desired method values" — Query is that facility.
//
// A query is a rule body without a head, and is evaluated as one: compiled
// with the statistics planner into the match plan a rule with this body
// would get, and run by the executor against the base itself — which a
// query does not change, so the base is its own frozen input — probing the
// base's literal index where a rule would. The answers are read off the
// frame. A body the compiler rejects falls back to the interpreter, the
// rule Run follows.
func Query(base *objectbase.Base, body []term.Literal) ([]Binding, error) {
	rule := term.Rule{Body: body, Name: "query"}
	x := &executor{base: base, p0: base}
	est := indexedCostWith(base, x.index)
	rc := &ruleCompiler{slots: map[term.Var]int{}}
	steps, _, err := compileSteps(rc, rule, greedyOrder(rule, est, -1), -1, est)
	if err != nil {
		return QueryInterpreted(base, body)
	}
	names := make([]string, 0, len(rc.slots))
	for v := range rc.slots {
		names = append(names, string(v))
	}
	sort.Strings(names)
	slots := make([]int, len(names))
	for i, n := range names {
		slots[i] = rc.slots[term.Var(n)]
	}
	rows := map[string]Binding{}
	var key []byte
	err = x.match(rc.n, steps, nil, func(fr []term.OID) error {
		key = key[:0]
		for i, n := range names {
			if i > 0 {
				key = append(key, ", "...)
			}
			key = append(key, n...)
			key = append(key, '=')
			key = append(key, fr[slots[i]].String()...)
		}
		if _, dup := rows[string(key)]; !dup {
			b := make(Binding, len(names))
			for i, n := range names {
				b[term.Var(n)] = fr[slots[i]]
			}
			rows[string(key)] = b
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sortedAnswers(rows), nil
}

// QueryInterpreted answers a query with the map-substitution interpreter
// and the source-order planner: what Query falls back to, and the reference
// the differential tests hold Query against.
func QueryInterpreted(base *objectbase.Base, body []term.Literal) ([]Binding, error) {
	rule := term.Rule{Body: body, Name: "query"}
	pl := planRule(rule)
	m := newMatcher(base)
	vars := rule.Vars()

	rows := map[string]Binding{}
	s := unify.Subst{}
	var tr unify.Trail
	var rec func(step int) error
	rec = func(step int) error {
		if step == len(pl.order) {
			// Materialize the answer now: the shared substitution is
			// rolled back as matching backtracks.
			b := Binding{}
			for v := range vars {
				if o, ok := s.Lookup(v); ok {
					b[v] = o
				}
			}
			rows[b.String()] = b
			return nil
		}
		return m.matchLiteral(body[pl.order[step]], s, &tr, func() error {
			return rec(step + 1)
		})
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return sortedAnswers(rows), nil
}
