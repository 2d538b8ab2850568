package eval

import (
	"maps"
	"slices"
	"strings"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// Binding is one answer to a query: the bindings of the query's variables.
type Binding map[term.Var]term.OID

// String renders the binding deterministically, e.g. "E=phil, S=4600".
func (b Binding) String() string {
	parts := make([]string, 0, len(b))
	for _, v := range slices.Sorted(maps.Keys(b)) {
		parts = append(parts, string(v)+"="+b[v].String())
	}
	return strings.Join(parts, ", ")
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
// frame. A body the compiler rejects — a variable unbound where a ground
// value is required — is refused with its *CompileError, as Run refuses a
// rule.
func Query(base *objectbase.Base, body []term.Literal) ([]Binding, error) {
	vars, rows, err := QueryRows(base, body)
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	out := make([]Binding, len(rows))
	for i, row := range rows {
		out[i] = make(Binding, len(vars))
		for j, v := range vars {
			out[i][v] = row[j]
		}
	}
	return out, nil
}

// QueryRows is Query with the answers left as a table: the query's
// variables in sorted order and, per distinct answer, their values in that
// order, the rows sorted as Query sorts (by Binding.String). A reader that
// serves many answers reads them here, at a slice per answer where a
// Binding is a map.
func QueryRows(base *objectbase.Base, body []term.Literal) (vars []term.Var, rows [][]term.OID, err error) {
	x := &executor{base: base, p0: base}
	q, err := compileQuery(x, body, nil)
	if err != nil {
		return nil, nil, err
	}
	return q.rows(x)
}

// CompiledQuery is a query body's match plan with its shape parameters
// (shape.go) as pre-bound slots: it serves every body of the shape.
type CompiledQuery struct {
	body   []term.Literal
	params []term.OID
	nslots int
	steps  []cstep
	vars   []term.Var // the answer variables, sorted
	slots  []int      // their slots
}

// PlanQuery compiles body against base for a cache keyed by shape, in the
// join order body's own constants pick. A body the compiler rejects is
// refused as QueryRows refuses it.
func PlanQuery(base *objectbase.Base, body []term.Literal) (*CompiledQuery, error) {
	_, params := QueryShape(body, nil)
	return compileQuery(&executor{base: base, p0: base}, body, params)
}

// Serves reports whether q serves body, whose shape parameters are params
// (QueryShape): body is, position by position, a body of q's shape.
func (q *CompiledQuery) Serves(body []term.Literal, params []term.OID) bool {
	return q != nil && shapeCmp{pa: q.params, pb: params}.body(q.body, body)
}

// Rows is QueryRows on q's plan, for a body q serves with the shape
// parameters params. The variables returned are q's: callers must not
// modify them.
func (q *CompiledQuery) Rows(base *objectbase.Base, params []term.OID) ([]term.Var, [][]term.OID, error) {
	return q.rows(&executor{base: base, p0: base, params: slices.Clone(params)})
}

// compileQuery compiles body as a rule body without a head, with the
// statistics planner reading the index x will probe (on an unfrozen base
// every Index call builds a new one); params become pre-bound slots.
func compileQuery(x *executor, body []term.Literal, params []term.OID) (*CompiledQuery, error) {
	rule := term.Rule{Body: body, Name: "query"}
	est := indexedCostWith(x.base, x.index)
	rc := &ruleCompiler{slots: map[term.Var]int{}, n: len(params), params: params}
	steps, _, err := compileSteps(rc, rule, greedyOrder(rule, est, -1), -1)
	if err != nil {
		return nil, &CompileError{Rule: rule.Name, Err: err}
	}
	q := &CompiledQuery{body: body, params: params, nslots: rc.n, steps: steps}
	q.vars = slices.Sorted(maps.Keys(rc.slots))
	q.slots = make([]int, len(q.vars))
	for i, v := range q.vars {
		q.slots[i] = rc.slots[v]
	}
	return q, nil
}

// rows runs q with x and collects the distinct answers.
func (q *CompiledQuery) rows(x *executor) (vars []term.Var, rows [][]term.OID, err error) {
	vars, slots := q.vars, q.slots
	// The distinct answers, collected under their rendering (made once per
	// answer) and returned in its order.
	seen := map[string][]term.OID{}
	var key []byte
	err = x.match(q.nslots, q.steps, nil, func(fr []term.OID) error {
		key = key[:0]
		for i, v := range vars {
			if i > 0 {
				key = append(key, ", "...)
			}
			key = append(key, v...)
			key = append(key, '=')
			key = append(key, fr[slots[i]].String()...)
		}
		if _, dup := seen[string(key)]; !dup {
			row := make([]term.OID, len(vars))
			for i, slot := range slots {
				row[i] = fr[slot]
			}
			seen[string(key)] = row
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rows = make([][]term.OID, len(keys))
	for i, k := range keys {
		rows[i] = seen[k]
	}
	return vars, rows, nil
}
