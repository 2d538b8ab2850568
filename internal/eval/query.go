package eval

import (
	"bytes"
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
// serves many answers reads them here, at its cells and a row header per
// answer where a Binding is a map.
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
	// prefixes[i] precedes variable i's value in an answer's rendering:
	// "A=", then ", X=" (Binding.String).
	prefixes [][]byte
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
	q.prefixes = make([][]byte, len(q.vars))
	for i, v := range q.vars {
		q.slots[i] = rc.slots[v]
		if i > 0 {
			q.prefixes[i] = []byte(", ")
		}
		q.prefixes[i] = append(append(q.prefixes[i], v...), '=')
	}
	return q, nil
}

// rows runs q with x and collects the distinct answers, in the order of
// their renderings. A match copies its cells out of the frame into chunks
// that double in size and never move; the rows are then one slice over the
// chunks, sorted by renderOrder, and of rows that render alike the least
// by OID.Compare is kept. An answer costs its cells and a row header: no
// map entry, no key.
func (q *CompiledQuery) rows(x *executor) (vars []term.Var, rows [][]term.OID, err error) {
	vars, slots, w := q.vars, q.slots, len(q.slots)
	var chunks [][]term.OID
	var cur []term.OID
	n := 0
	err = x.match(q.nslots, q.steps, nil, func(fr []term.OID) error {
		n++
		if len(cur)+w > cap(cur) {
			chunks = append(chunks, cur)
			cur = make([]term.OID, 0, max(2*cap(cur), w))
		}
		for _, slot := range slots {
			cur = append(cur, fr[slot])
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if w == 0 && n > 0 { // a body without variables holds: one empty answer
		return vars, [][]term.OID{{}}, nil
	}
	rows = make([][]term.OID, 0, n)
	for _, c := range append(chunks, cur) {
		for i := 0; i < len(c); i += w {
			rows = append(rows, c[i:i+w:i+w])
		}
	}
	ord := renderOrder{prefixes: q.prefixes}
	slices.SortFunc(rows, func(a, b []term.OID) int {
		if c := ord.compare(a, b); c != 0 {
			return c
		}
		return slices.CompareFunc(a, b, term.OID.Compare)
	})
	rows = slices.CompactFunc(rows, func(a, b []term.OID) bool { return ord.compare(a, b) == 0 })
	return vars, slices.Clip(rows), nil
}

// renderOrder orders rows of a query's answers as their renderings
// "A=…, X=…" (Binding.String) compare, without making them: it walks two
// rows' renderings from their first differing cell up to the first byte in
// which they differ, rendering each cell on its way into a buffer of its
// row's side.
type renderOrder struct {
	prefixes [][]byte // what precedes each cell in a rendering
	a, b     renderTail
}

func (o *renderOrder) compare(a, b []term.OID) int {
	j := 0
	for j < len(a) && a[j] == b[j] {
		j++
	}
	if j == len(a) {
		return 0
	}
	// The renderings agree up to cell j's prefix: equal cells render alike.
	// Two symbols render as their names, which mostly differ early.
	if a[j].Sort() == term.SortSym && b[j].Sort() == term.SortSym {
		na, nb := a[j].Name(), b[j].Name()
		n := min(len(na), len(nb))
		if c := strings.Compare(na[:n], nb[:n]); c != 0 {
			return c
		}
	}
	o.a.start(a, o.prefixes, j)
	o.b.start(b, o.prefixes, j)
	for {
		ma, mb := o.a.more(), o.b.more()
		switch {
		case !ma && !mb:
			return 0
		case !ma:
			return -1
		case !mb:
			return 1
		}
		n := min(len(o.a.rest), len(o.b.rest))
		if c := bytes.Compare(o.a.rest[:n], o.b.rest[:n]); c != 0 {
			return c
		}
		o.a.rest, o.b.rest = o.a.rest[n:], o.b.rest[n:]
	}
}

// renderTail reads a row's rendering from one of its cells on, a piece at
// a time: a cell's prefix, then the cell.
type renderTail struct {
	row      []term.OID
	prefixes [][]byte
	piece    int    // the next: cell piece/2's prefix when even, the cell when odd
	rest     []byte // the unread part of the current piece
	buf      []byte // the current cell's rendering
}

func (t *renderTail) start(row []term.OID, prefixes [][]byte, cell int) {
	t.row, t.prefixes, t.piece, t.rest = row, prefixes, 2*cell+1, nil
}

// more reads pieces until one has bytes left to read, and reports whether
// one had.
func (t *renderTail) more() bool {
	for len(t.rest) == 0 {
		if t.piece == 2*len(t.row) {
			return false
		}
		if j := t.piece / 2; t.piece%2 == 0 {
			t.rest = t.prefixes[j]
		} else {
			t.buf = t.row[j].AppendTo(t.buf[:0])
			t.rest = t.buf
		}
		t.piece++
	}
	return true
}
