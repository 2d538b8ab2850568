package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"verlog/client"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/workload"
)

// opKind is the request type of one scripted operation.
type opKind uint8

const (
	opApply opKind = iota
	opQuery
	opCheck
)

func (k opKind) String() string { return [...]string{"apply", "query", "check"}[k] }

// op is one scripted request. text is what travels to the server; the
// remaining fields are the generator's own notes for the oracle and never
// leave the benchmark.
type op struct {
	kind opKind
	text string
	// reads lists the model objects whose value the query returns (empty
	// for applies and checks); touches lists the objects an apply updates,
	// nil meaning "every object" (bulk_raise, recursive_closure).
	reads   []int
	touches []int
	// descendants marks a genealogy query that asks for everyone below
	// reads[0] rather than everyone above.
	descendants bool
}

// script is the seeded operation stream of one round: warm runs untimed
// inside setup_s, measured is the timed phase. Every round of a run
// replays the identical script against a fresh server.
type script struct {
	warm, measured []op
}

// bytes renders the script canonically; the determinism test compares it
// across seeds.
func (s script) bytes() []byte {
	var b bytes.Buffer
	for _, part := range [][]op{s.warm, s.measured} {
		for _, o := range part {
			fmt.Fprintf(&b, "%s\t%s\n", o.kind, o.text)
		}
		b.WriteString("--\n")
	}
	return b.Bytes()
}

// oracle is the generator's own model of the object base. It is advanced
// only by acknowledged applies and is the reference every query result
// and both end-of-round checks are held against; nothing in it is read
// back from the server under test.
type oracle interface {
	// issue notes that an apply is about to be sent, ack that it was
	// acknowledged. Between the two a concurrent reader may see either
	// value.
	issue(o *op)
	ack(o *op)
	// floor snapshots the lowest value a query sent now may return for
	// each object in o.reads; checkRows holds the reply against that floor
	// and the values issued by the time the reply arrived. With one client
	// the two coincide and the check is exact.
	floor(o *op) []int64
	checkRows(o *op, floor []int64, rows []map[string]string) error
	// verify compares the whole model with the server through /query and
	// reports the objects touched by the last ten applies among those it
	// looked at.
	verify(ctx context.Context, c *client.Client) error
	// reset returns the model to the initial base (a new round).
	reset()
}

// workloadSpec names a workload and builds its inputs from a seed.
type workloadSpec struct {
	name    string
	clients int
	build   func(spec *workloadSpec, seed int64, scale int) *instance
}

// instance builds the workload's inputs from seed at 1/scale of full size.
func (w *workloadSpec) instance(seed int64, scale int) *instance { return w.build(w, seed, scale) }

// instance is one seeded workload: the initial base, the op script and
// the oracle that knows what the server must answer.
type instance struct {
	spec   *workloadSpec
	base   *objectbase.Base
	small  *objectbase.Base // same shape at ~100 objects, for repository.apply_scaling_x
	script script
	// smallText maps an apply of the script onto the small base (point
	// updates address e<K mod 100>); nil keeps the text.
	smallText func(o op) string
	oracle    oracle
	checkText string // program POSTed to /check by the traced pass epilogue
}

func (in *instance) baseText() string { return parser.FormatFacts(in.base, false) }

// scaled divides a base size or op count by scale; the benchmark runs at 1, the
// hermetic smoke test at 50. Floors keep the reduced workloads meaningful.
func scaled(n, scale, floor int) int {
	if n /= scale; n < floor {
		return floor
	}
	return n
}

// Full-scale sizes. They are fixed op counts, not durations, so that the
// count metrics compare run over run; see README "time budget" for how
// they were cut from the issue's figures to fit the driver's cap while
// keeping >= 100 samples behind every percentile.
const (
	warmApplies = 5
	warmQueries = 20

	pointEmployees = 3000
	pointApplies   = 100
	pointQueries   = 400

	bulkEmployees = 1500
	bulkApplies   = 100
	bulkQueries   = 200

	closureRoots       = 3
	closureGenerations = 8
	closureApplies     = 100
	closureQueries     = 200

	mixedEmployees = 1500
	mixedOps       = 1500
	smallEmployees = 100
)

var workloads = []*workloadSpec{
	{
		name:    "point_update",
		clients: 1,
		build:   buildPointUpdate,
	},
	{
		name:    "bulk_raise",
		clients: 1,
		build:   buildBulkRaise,
	},
	{
		name:    "recursive_closure",
		clients: 1,
		build:   buildRecursiveClosure,
	},
	{
		name:    "mixed_rw",
		clients: 2,
		build:   buildMixedRW,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rngFor derives the script's random stream from the run seed and the
// workload name, so two workloads never share a stream.
func rngFor(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// ---- enterprise workloads -------------------------------------------------

func pointProgram(k int) string {
	return fmt.Sprintf("mod[e%d].sal -> (S, S') <- e%d.sal -> S, S' = S + 1.", k, k)
}

// bulkProgram raises every employee additively, so salaries stay integers
// and the run is stationary (S * 1.1 would grow rationals without bound).
const bulkProgram = `mgr: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S + 2.
oth: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S + 1.`

func pointQuery(k int) string { return fmt.Sprintf("e%d.sal -> S.", k) }
func bossQuery(m int) string  { return fmt.Sprintf("E.boss -> e%d, E.sal -> S.", m) }

// enterpriseOracle models per-employee salaries. acked counts the raises
// acknowledged per employee, issued those sent; bulk counts whole-base
// raises (managers +2, others +1).
type enterpriseOracle struct {
	emps []workload.Employee
	subs map[int][]int // manager index -> subordinate indexes

	mu          sync.Mutex
	acked       []int64
	issued      []int64
	bulkAcked   int64
	bulkIssued  int64
	lastTouched [][]int // touch sets of the most recent applies, newest last
}

func newEnterpriseOracle(emps []workload.Employee) *enterpriseOracle {
	e := &enterpriseOracle{emps: emps, subs: map[int][]int{}}
	for i, emp := range emps {
		if emp.Boss != "" {
			b, _ := strconv.Atoi(strings.TrimPrefix(emp.Boss, "e"))
			e.subs[b] = append(e.subs[b], i)
		}
	}
	e.reset()
	return e
}

func (e *enterpriseOracle) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.acked = make([]int64, len(e.emps))
	e.issued = make([]int64, len(e.emps))
	e.bulkAcked, e.bulkIssued = 0, 0
	e.lastTouched = nil
}

func (e *enterpriseOracle) bulkStep(i int) int64 {
	if e.emps[i].Manager {
		return 2
	}
	return 1
}

func (e *enterpriseOracle) issue(o *op) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if o.touches == nil {
		e.bulkIssued++
		return
	}
	for _, k := range o.touches {
		e.issued[k]++
	}
}

func (e *enterpriseOracle) ack(o *op) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if o.touches == nil {
		e.bulkAcked++
	} else {
		for _, k := range o.touches {
			e.acked[k]++
		}
	}
	e.lastTouched = append(e.lastTouched, o.touches)
	if len(e.lastTouched) > 10 {
		e.lastTouched = e.lastTouched[1:]
	}
}

// value is employee i's salary given point and bulk raise counts.
func (e *enterpriseOracle) value(i int, point, bulk int64) int64 {
	return e.emps[i].Salary + point + bulk*e.bulkStep(i)
}

func (e *enterpriseOracle) floor(o *op) []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	lo := make([]int64, len(o.reads))
	for j, i := range o.reads {
		lo[j] = e.value(i, e.acked[i], e.bulkAcked)
	}
	return lo
}

func (e *enterpriseOracle) checkRows(o *op, floor []int64, rows []map[string]string) error {
	if len(rows) != len(o.reads) {
		return fmt.Errorf("query %q: %d rows, model has %d", o.text, len(rows), len(o.reads))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pos := map[string]int{}
	for j, i := range o.reads {
		pos[e.emps[i].Name] = j
	}
	for _, row := range rows {
		j := 0
		if name, ok := row["E"]; ok { // boss query: rows carry the employee
			var known bool
			if j, known = pos[name]; !known {
				return fmt.Errorf("query %q: unexpected row for %s", o.text, name)
			}
		}
		got, err := strconv.ParseInt(row["S"], 10, 64)
		if err != nil {
			return fmt.Errorf("query %q: salary %q: %v", o.text, row["S"], err)
		}
		i := o.reads[j]
		if hi := e.value(i, e.issued[i], e.bulkIssued); got < floor[j] || got > hi {
			return fmt.Errorf("query %q: %s.sal = %d, model allows [%d, %d]", o.text, e.emps[i].Name, got, floor[j], hi)
		}
	}
	return nil
}

// verify reads every employee's salary back in one scan query and holds
// all of them (a superset of "a sample of >= 200 plus the objects of the
// last ten applies") against the model. It runs with no apply in flight.
func (e *enterpriseOracle) verify(ctx context.Context, c *client.Client) error {
	rows, err := c.Query(ctx, "E.sal -> S.")
	if err != nil {
		return fmt.Errorf("oracle scan: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(rows) != len(e.emps) {
		return fmt.Errorf("oracle: %d salaries on the server, model has %d", len(rows), len(e.emps))
	}
	seen := make([]bool, len(e.emps))
	for _, row := range rows {
		name := row["E"]
		i, err := strconv.Atoi(strings.TrimPrefix(name, "e"))
		if err != nil || i < 0 || i >= len(e.emps) {
			return fmt.Errorf("oracle: unknown employee %q", name)
		}
		want := strconv.FormatInt(e.value(i, e.acked[i], e.bulkAcked), 10)
		if row["S"] != want {
			return fmt.Errorf("oracle: %s.sal = %s on the server, model says %s (lost or doubled apply)", name, row["S"], want)
		}
		seen[i] = true
	}
	for _, touched := range e.lastTouched {
		for _, k := range touched {
			if !seen[k] {
				return fmt.Errorf("oracle: recently updated %s missing from the scan", e.emps[k].Name)
			}
		}
	}
	return nil
}

func enterpriseInstance(spec *workloadSpec, seed int64, employees int) (*instance, *enterpriseOracle) {
	emps := workload.EnterpriseSpec{Employees: employees, Seed: seed}.Generate()
	or := newEnterpriseOracle(emps)
	small := smallEmployees
	if small > employees {
		small = employees
	}
	in := &instance{
		spec:      spec,
		base:      workload.EmployeesToBase(emps),
		small:     workload.EnterpriseSpec{Employees: small, Seed: seed}.ObjectBase(),
		oracle:    or,
		checkText: pointProgram(0),
	}
	return in, or
}

func managersOf(or *enterpriseOracle) []int {
	var ms []int
	for m := range or.subs {
		ms = append(ms, m)
	}
	sort.Ints(ms)
	return ms
}

// enterpriseQuery mixes the two read shapes of the enterprise workloads
// three to one: a point lookup of employee k (microseconds in the
// evaluator, so its latency is the HTTP/server overhead) and the
// subordinates join of a manager picked by the same draw (a scan of the
// boss facts). The uneven mix keeps both reported percentiles inside one
// shape — p50 in the lookups, p90 in the joins — instead of on the
// boundary between them, where a median jumps.
func enterpriseQuery(or *enterpriseOracle, managers []int, i, k int) op {
	if i%4 != 3 {
		return op{kind: opQuery, text: pointQuery(k), reads: []int{k}}
	}
	m := managers[k%len(managers)]
	return op{kind: opQuery, text: bossQuery(m), reads: or.subs[m]}
}

// interleave emits applies and queries in a fixed a : q rhythm (one apply,
// then q/a queries), so a query after an apply pays the new head's lazy
// index build, as real traffic does.
func interleave(applies, queries int, apply func(i int) op, query func(i int) op) []op {
	var ops []op
	qi := 0
	for a := 0; a < applies; a++ {
		ops = append(ops, apply(a))
		for end := (a + 1) * queries / applies; qi < end; qi++ {
			ops = append(ops, query(qi))
		}
	}
	return ops
}

func buildPointUpdate(spec *workloadSpec, seed int64, scale int) *instance {
	n := scaled(pointEmployees, scale, 100)
	in, or := enterpriseInstance(spec, seed, n)
	rng := rngFor(seed, spec.name)
	managers := managersOf(or)
	apply := func(int) op {
		k := rng.Intn(n)
		return op{kind: opApply, text: pointProgram(k), touches: []int{k}}
	}
	query := func(i int) op { return enterpriseQuery(or, managers, i, rng.Intn(n)) }
	in.script.warm = interleave(scaled(warmApplies, scale, 2), scaled(warmQueries, scale, 4), apply, query)
	in.script.measured = interleave(scaled(pointApplies, scale, 4), scaled(pointQueries, scale, 16), apply, query)
	in.smallText = func(o op) string { return pointProgram(o.touches[0] % smallEmployees) }
	return in
}

func buildBulkRaise(spec *workloadSpec, seed int64, scale int) *instance {
	n := scaled(bulkEmployees, scale, 100)
	in, or := enterpriseInstance(spec, seed, n)
	rng := rngFor(seed, spec.name)
	managers := managersOf(or)
	apply := func(int) op { return op{kind: opApply, text: bulkProgram} }
	query := func(i int) op { return enterpriseQuery(or, managers, i, rng.Intn(n)) }
	in.script.warm = interleave(scaled(warmApplies, scale, 2), scaled(warmQueries, scale, 4), apply, query)
	in.script.measured = interleave(scaled(bulkApplies, scale, 4), scaled(bulkQueries, scale, 8), apply, query)
	in.checkText = bulkProgram
	return in
}

func buildMixedRW(spec *workloadSpec, seed int64, scale int) *instance {
	n := scaled(mixedEmployees, scale, 100)
	in, or := enterpriseInstance(spec, seed, n)
	rng := rngFor(seed, spec.name)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	managers := managersOf(or)
	gen := func(total int) []op {
		ops := make([]op, 0, total)
		queries := 0
		for i := 0; i < total; i++ {
			k := int(zipf.Uint64())
			switch slot := i % 20; { // 20% applies, 5% checks, 75% queries
			case slot%5 == 0:
				ops = append(ops, op{kind: opApply, text: pointProgram(k), touches: []int{k}})
			case slot == 7:
				ops = append(ops, op{kind: opCheck, text: pointProgram(k)})
			default:
				ops = append(ops, enterpriseQuery(or, managers, queries, k))
				queries++
			}
		}
		return ops
	}
	in.script.warm = gen(scaled(5*warmApplies, scale, 10))
	in.script.measured = gen(scaled(mixedOps, scale, 40))
	in.smallText = func(o op) string { return pointProgram(o.touches[0] % smallEmployees) }
	return in
}

// ---- genealogy workload ---------------------------------------------------

// closureOracle models the anc relation as the transitive closure of the
// base's parents facts, computed here by walking up from each person.
type closureOracle struct {
	persons   []string
	ancestors map[string][]string // proper ancestors, nearest first
	children  map[string][]string // all descendants
	pairs     int

	mu      sync.Mutex
	applied bool
}

func newClosureOracle(b *objectbase.Base, wantPairs int) *closureOracle {
	parent := map[string]string{}
	c := &closureOracle{ancestors: map[string][]string{}, children: map[string][]string{}}
	for _, f := range b.Facts() {
		switch f.Method {
		case "isa":
			c.persons = append(c.persons, f.V.Object.Name())
		case "parents":
			parent[f.V.Object.Name()] = f.Result.Name()
		}
	}
	sort.Strings(c.persons)
	for _, p := range c.persons {
		for a, ok := parent[p]; ok; a, ok = parent[a] {
			c.ancestors[p] = append(c.ancestors[p], a)
			c.children[a] = append(c.children[a], p)
			c.pairs++
		}
	}
	if c.pairs != wantPairs {
		panic(fmt.Sprintf("closure oracle: %d pairs, GenealogySpec.AncestorPairs says %d", c.pairs, wantPairs))
	}
	return c
}

func (c *closureOracle) reset()            { c.mu.Lock(); c.applied = false; c.mu.Unlock() }
func (c *closureOracle) issue(*op)         {}
func (c *closureOracle) ack(*op)           { c.mu.Lock(); c.applied = true; c.mu.Unlock() }
func (c *closureOracle) floor(*op) []int64 { return nil }

func (c *closureOracle) checkRows(o *op, _ []int64, rows []map[string]string) error {
	p := c.persons[o.reads[0]]
	want, col := c.ancestors[p], "A"
	if o.descendants {
		want, col = c.children[p], "X"
	}
	return sameSet(o.text, col, rows, want)
}

func sameSet(what, col string, rows []map[string]string, want []string) error {
	if len(rows) != len(want) {
		return fmt.Errorf("query %q: %d rows, model has %d", what, len(rows), len(want))
	}
	set := make(map[string]bool, len(want))
	for _, w := range want {
		set[w] = true
	}
	for _, row := range rows {
		if !set[row[col]] {
			return fmt.Errorf("query %q: unexpected %s=%s", what, col, row[col])
		}
	}
	return nil
}

// verify reads the whole anc relation back and compares it pair by pair
// with the model's closure; its size is GenealogySpec.AncestorPairs.
func (c *closureOracle) verify(ctx context.Context, cl *client.Client) error {
	rows, err := cl.Query(ctx, "X.anc -> A.")
	if err != nil {
		return fmt.Errorf("oracle scan: %w", err)
	}
	c.mu.Lock()
	applied := c.applied
	c.mu.Unlock()
	if !applied {
		if len(rows) != 0 {
			return fmt.Errorf("oracle: %d anc pairs before any apply", len(rows))
		}
		return nil
	}
	if len(rows) != c.pairs {
		return fmt.Errorf("oracle: %d anc pairs on the server, model has %d", len(rows), c.pairs)
	}
	for _, row := range rows {
		ok := false
		for _, a := range c.ancestors[row["X"]] {
			if a == row["A"] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("oracle: %s.anc -> %s is not in the model's closure", row["X"], row["A"])
		}
	}
	return nil
}

func buildRecursiveClosure(spec *workloadSpec, seed int64, scale int) *instance {
	gens := closureGenerations
	roots := closureRoots
	if scale > 1 {
		gens, roots = 5, 2
	}
	g := workload.GenealogySpec{Generations: gens, Branching: 2, Roots: roots}
	base := g.ObjectBase()
	or := newClosureOracle(base, g.AncestorPairs())
	in := &instance{
		spec:      spec,
		base:      base,
		small:     workload.GenealogySpec{Generations: 5, Branching: 2, Roots: 1}.ObjectBase(),
		oracle:    or,
		checkText: workload.AncestorsProgram,
	}
	var rootIdx, leafIdx []int
	for i, p := range or.persons {
		switch len(or.ancestors[p]) {
		case 0:
			rootIdx = append(rootIdx, i)
		case gens - 1:
			leafIdx = append(leafIdx, i)
		}
	}
	rng := rngFor(seed, spec.name)
	apply := func(int) op { return op{kind: opApply, text: workload.AncestorsProgram} }
	query := func(i int) op {
		// Three leaf lookups to one root scan, for the same reason as
		// enterpriseQuery's mix.
		if i%4 == 3 { // descendants of a root: 2^gens - 2 rows
			r := rootIdx[rng.Intn(len(rootIdx))]
			return op{kind: opQuery, text: fmt.Sprintf("X.anc -> %s.", or.persons[r]), reads: []int{r}, descendants: true}
		}
		l := leafIdx[rng.Intn(len(leafIdx))]
		return op{kind: opQuery, text: fmt.Sprintf("%s.anc -> A.", or.persons[l]), reads: []int{l}}
	}
	in.script.warm = interleave(scaled(warmApplies, scale, 2), scaled(warmQueries, scale, 4), apply, query)
	in.script.measured = interleave(scaled(closureApplies, scale, 4), scaled(closureQueries, scale, 8), apply, query)
	return in
}
