package eval

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
)

// rowsByKey is how CompiledQuery.rows collected its answers before rows
// were chunked and sorted by renderOrder: under their rendering, built per
// answer as a key string, in a map, each kept row a slice of its own, the
// keys sorted. It also returns every distinct row found under each key.
func rowsByKey(q *CompiledQuery, x *executor) (vars []term.Var, rows [][]term.OID, alike map[string][][]term.OID, err error) {
	vars, slots := q.vars, q.slots
	seen := map[string][]term.OID{}
	alike = map[string][][]term.OID{}
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
		row := make([]term.OID, len(vars))
		for i, slot := range slots {
			row[i] = fr[slot]
		}
		if !slices.ContainsFunc(alike[string(key)], func(r []term.OID) bool { return slices.Equal(r, row) }) {
			alike[string(key)] = append(alike[string(key)], row)
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = row
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
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
	return vars, rows, alike, nil
}

// rowValues are the values of the random bases of TestRowsMatchRowsByKey:
// numbers, rationals among them (1/2 renders 0.5); strings with quotes and
// escapes; symbols; pairs of values of different sorts that render alike
// ("x" the symbol and the string, 1, 0.5); and symbols whose rendering
// runs on like an answer's (a, then "a, V=b"), so that two renderings can
// agree past the end of a cell.
var rowValues = []term.OID{
	term.Int(1), term.Int(-2), term.Int(10), term.Num(1, 2), term.Num(1, 3), term.Num(-5, 4),
	term.Str("x"), term.Str(`say "hi"`), term.Str("tab\tand \\ é"), term.Str("a, V=b"),
	term.Sym("a"), term.Sym("b"), term.Sym("a, V=b"), term.Sym("a, V=a"), term.Sym("a,"),
	term.Sym(`"x"`), term.Sym("1"), term.Sym("0.5"),
}

// rowsBase is a random base over objects o0..o7 with methods m and n drawn
// from rowValues, run through a program that gives every object that has
// an m an ins version, so that an any-version body reaches each of its
// bindings through two versions.
func rowsBase(t *testing.T, rng *rand.Rand) *objectbase.Base {
	t.Helper()
	ob := objectbase.New()
	for i := range 8 {
		o := term.Sym(fmt.Sprintf("o%d", i))
		ob.EnsureObject(o)
		for _, method := range []string{"m", "m", "n"} {
			if rng.IntN(3) > 0 {
				ob.Insert(term.NewFact(term.GVID{Object: o}, method, rowValues[rng.IntN(len(rowValues))]))
			}
		}
	}
	res, err := Run(ob, mustProgram(t, `v: ins[X].k -> 1 <- X.m -> V.`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Result
}

// TestRowsMatchRowsByKey holds the chunked, comparator-sorted rows against
// the map-and-key collection they replaced, on random bases: the same
// answers in the same order, by rendering, and of the rows that render
// alike the least by OID.Compare (the map kept the first matched).
func TestRowsMatchRowsByKey(t *testing.T) {
	queries := []string{
		`X.m -> V.`,
		`X.m -> V, X.n -> W.`,
		`X.m -> V, Y.n -> V.`,
		`X.m -> V, X.m -> W.`,
		`any(X).m -> V.`,
		`any(X).m -> V, X.n -> W.`,
		`ins(X).k -> K, ins(X).m -> V.`,
		`X.m -> a.`,
		`o1.m -> V.`,
		`o1.m -> a.`,
		`o1.m -> nothing.`,
		`o1.m -> a, o2.m -> b.`,
		`any(o1).m -> a.`,
	}
	rng := rand.New(rand.NewPCG(46, 1))
	answered, alikeSeen := 0, 0
	for round := range 60 {
		base := rowsBase(t, rng)
		for _, src := range queries {
			body, err := parser.Query(src, "q")
			if err != nil {
				t.Fatal(err)
			}
			q, err := compileQuery(&executor{base: base, p0: base}, body, nil)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			vars, rows, err := q.rows(&executor{base: base, p0: base})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			wantVars, want, alike, err := rowsByKey(q, &executor{base: base, p0: base})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if !slices.Equal(vars, wantVars) || len(rows) != len(want) {
				t.Fatalf("round %d, %s: %v with %d rows, want %v with %d", round, src, vars, len(rows), wantVars, len(want))
			}
			answered += len(rows)
			for i, row := range rows {
				got, key := binding(vars, row).String(), binding(vars, want[i]).String()
				if got != key {
					t.Fatalf("round %d, %s: row %d renders %s, want %s", round, src, i, got, key)
				}
				least := slices.MinFunc(alike[key], func(a, b []term.OID) int { return slices.CompareFunc(a, b, term.OID.Compare) })
				if !slices.Equal(row, least) {
					t.Fatalf("round %d, %s: row %d is %v, want %v, the least of %v", round, src, i, row, least, alike[key])
				}
				if len(alike[key]) > 1 {
					alikeSeen++
				}
			}
		}
	}
	if answered == 0 || alikeSeen == 0 {
		t.Fatalf("the bases gave %d answers, %d of them rendering alike: the test tests nothing", answered, alikeSeen)
	}
}

func binding(vars []term.Var, row []term.OID) Binding {
	b := make(Binding, len(vars))
	for i, v := range vars {
		b[v] = row[i]
	}
	return b
}
