package verlog

// Regression guard over the checked-in benchmark reference: the E1 and E2
// apply at n=10000 and the E24 re-apply on a closed genealogy head must stay
// within 1.15× of the B/op and allocs/op recorded in BENCH_10.json — counts,
// which the host the guard runs on cannot move, unlike the ns/op beside
// them. Losing the compact ground terms, the single copy of a changed state,
// the compiled plans or the delta by reference costs far more than the
// margin. `make bench` regenerates the reference.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"verlog/internal/bench"
	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// guardRef reads one reference metric of a benchmark result.
func guardRef(t *testing.T, rep *bench.GoBenchReport, name, metric string) float64 {
	t.Helper()
	for _, r := range rep.Results {
		if r.Name == name {
			if v := r.Metrics[metric]; v > 0 {
				return v
			}
		}
	}
	t.Fatalf("BENCH_10.json has no %s for %s", metric, name)
	return 0
}

// closedGenealogy returns a frozen head that already holds the ancestors
// closure of the generated genealogy, the ancestors program and its cached
// plans: the apply the server makes on recursive_closure.
func closedGenealogy(t testing.TB, spec workload.GenealogySpec) (*ObjectBase, *Program, []Option) {
	t.Helper()
	p, err := ParseProgram(workload.AncestorsProgram)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Apply(spec.ObjectBase(), p)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := eval.Compile(first.Final, p, false)
	if err != nil {
		t.Fatal(err)
	}
	return first.Final, p, []Option{core.WithPlans(plans)}
}

func TestBenchRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("regression guard runs real applies on 10⁴ employees; skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	data, err := os.ReadFile("BENCH_10.json")
	if err != nil {
		t.Fatalf("read reference: %v (run `make bench` to regenerate)", err)
	}
	var rep bench.GoBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parse BENCH_10.json: %v", err)
	}

	// Each case sets up what its benchmark sets up: the head, the program
	// and the options of the apply the benchmark times.
	enterprise := func(program string, seed int64) func() (*ObjectBase, *Program, []Option) {
		return func() (*ObjectBase, *Program, []Option) {
			p, err := ParseProgram(program)
			if err != nil {
				t.Fatal(err)
			}
			return workload.EnterpriseSpec{Employees: 10000, Seed: seed}.ObjectBase().Freeze(), p, nil
		}
	}
	closedClosure := func() (*ObjectBase, *Program, []Option) {
		return closedGenealogy(t, workload.GenealogySpec{Generations: 8, Branching: 2, Roots: 3})
	}
	cases := []struct {
		name  string
		setup func() (*ObjectBase, *Program, []Option)
	}{
		{"BenchmarkE1SalaryRaise/n=10000", enterprise(workload.SalaryRaiseProgram, 42)},
		{"BenchmarkE2Enterprise/n=10000", enterprise(workload.EnterpriseProgram, 7)},
		{"BenchmarkE24ClosedClosure/apply", closedClosure},
	}
	for _, c := range cases {
		// As in the benchmark, whose reference rows come from the warm pass
		// (-benchtime 5x): a first apply builds what the frozen base caches
		// and leaves the evaluation's working memory in the slot, and the five
		// applies counted all reuse it.
		ob, p, opts := c.setup()
		_, bytes, allocs, _ := measure(applyRun(t, ob, p, opts...), nil, 5, true)
		for _, m := range []struct {
			metric string
			got    float64
		}{{"B/op", bytes}, {"allocs/op", allocs}} {
			ref := guardRef(t, &rep, c.name, m.metric)
			t.Logf("%s: %.0f %s, reference %.0f (%.2fx)", c.name, m.got, m.metric, ref, m.got/ref)
			if m.got > 1.15*ref {
				t.Errorf("%s regressed: %.0f %s exceeds 1.15× the reference %.0f", c.name, m.got, m.metric, ref)
			}
		}
	}
}

// enterpriseHead returns a frozen head of n generated employees that has
// served one bulk raise: the next writer's read of it, as on a server.
func enterpriseHead(tb testing.TB, n int) *ObjectBase {
	tb.Helper()
	p, err := ParseProgram(workload.BulkRaiseProgram)
	if err != nil {
		tb.Fatal(err)
	}
	head := workload.EnterpriseSpec{Employees: n, Seed: 21}.ObjectBase().Freeze()
	if _, err := Apply(head, p); err != nil {
		tb.Fatal(err)
	}
	return head
}

// bossQueries puts the two query shapes of the end-to-end workloads — the
// point lookup and the result-constant join over a manager's reports — to
// the head for the first few managers, and returns the rows the joins
// answered.
func bossQueries(tb testing.TB, head *ObjectBase, managers int) (rows int) {
	tb.Helper()
	for m := 0; m < managers; m++ {
		if _, err := Query(head, fmt.Sprintf("e%d.sal -> S.", m)); err != nil {
			tb.Fatal(err)
		}
		bs, err := Query(head, fmt.Sprintf("E.boss -> e%d, E.sal -> S.", m))
		if err != nil {
			tb.Fatal(err)
		}
		rows += len(bs)
	}
	return rows
}

// cachedQuery plans query on head as the repository's plan cache does and
// returns a run of the plan on head: the answers a cache hit reads.
func cachedQuery(tb testing.TB, head *ObjectBase, query string) func() (vars []term.Var, rows [][]term.OID) {
	tb.Helper()
	body, err := parser.Query(query, "query")
	if err != nil {
		tb.Fatal(err)
	}
	q, err := eval.PlanQuery(head, body)
	if err != nil {
		tb.Fatal(err)
	}
	_, params := eval.QueryShape(body, nil)
	return func() ([]term.Var, [][]term.OID) {
		vars, rows, err := q.Rows(head, params)
		if err != nil {
			tb.Fatal(err)
		}
		return vars, rows
	}
}

// costLaw is one row of TestCostLaws: an operation swept over sizes, and
// the largest exponents its costs may grow with in x, the work a run
// reports (0 asserts nothing; only a row with nsExp is timed).
type costLaw struct {
	name  string
	sizes []int
	reps  int // runs per measurement (1 if unset)
	// prepare returns the run, and an edit (nil: none) that precedes every
	// run outside the count.
	prepare                    func(t *testing.T, size int) (edit func(), run func() (x int))
	bytesExp, allocsExp, nsExp float64
	bytesPerX                  float64 // a cap on bytes per unit of x at every size; 0: none
}

// fitExponent is the least-squares slope of log y against log x.
func fitExponent(xs, ys []float64) float64 {
	var mx, my, sxy, sxx float64
	for i := range xs {
		mx += math.Log(xs[i]) / float64(len(xs))
		my += math.Log(ys[i]) / float64(len(xs))
	}
	for i := range xs {
		dx := math.Log(xs[i]) - mx
		sxy += dx * (math.Log(ys[i]) - my)
		sxx += dx * dx
	}
	return sxy / sxx
}

// committedClosure returns a repository whose head holds the closure of a
// genealogy of the given generations, and the ancestors program.
// defaultIterationBound is the evaluator's bound on T_P applications per
// stratum when an apply names none.
const defaultIterationBound = 1_000_000

func committedClosure(t *testing.T, generations int) (*repository.Repository, *Program) {
	head, p, _ := closedGenealogy(t, workload.GenealogySpec{Generations: generations, Branching: 2})
	r, err := repository.Init(t.TempDir()+"/repo", head)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, p
}

// applyRun is the run of one apply of p to head; its x is the fired updates.
func applyRun(t *testing.T, head *ObjectBase, p *Program, opts ...Option) func() int {
	return func() int {
		res, err := Apply(head, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fired
	}
}

// measure makes reps runs after a collection, with the collector off (a
// collection of its own would be counted; what it keeps would not change),
// and returns the last x and the bytes, allocations and CPU ns per run. A
// warm measurement makes a first, unmeasured run: it builds what the head
// caches and leaves the evaluation's working memory in the slot for the
// others. A non-nil edit runs before every run, outside the count.
func measure(run func() int, edit func(), reps int, warm bool) (x, bytes, allocs, ns float64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if warm {
		if edit != nil {
			edit()
		}
		run()
	}
	var m0, m1 runtime.MemStats
	var b, a uint64
	var d time.Duration
	count := func(runs int) {
		runtime.ReadMemStats(&m0)
		start := cpuTime()
		for range runs {
			x = float64(run())
		}
		d += cpuTime() - start
		runtime.ReadMemStats(&m1)
		b, a = b+m1.TotalAlloc-m0.TotalAlloc, a+m1.Mallocs-m0.Mallocs
	}
	if edit == nil {
		count(reps)
	} else {
		for range reps {
			edit()
			count(1)
		}
	}
	per := func(n uint64) float64 { return float64(n) / float64(reps) }
	return x, per(b), per(a), per(uint64(d))
}

// cpuTime is the CPU time the process has used, user and system. Unlike the
// wall clock it stands still while the process waits for a CPU, so other
// processes on the host — the other test binaries of `go test ./...` — do
// not add to a measurement; with the collector off, and no goroutine of its
// own, a run's CPU time is its own work.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (law costLaw) check(t *testing.T) {
	reps, n := max(law.reps, 1), len(law.sizes)
	runs, edits, xs, bytes, allocs, ns := make([]func() int, n), make([]func(), n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, size := range law.sizes {
		edits[i], runs[i] = law.prepare(t, size)
		xs[i], bytes[i], allocs[i], ns[i] = measure(runs[i], edits[i], reps, true)
	}
	// Best of three rounds, each timing every size once: a burst of load on
	// the host slows a round of all sizes, not every run of one.
	for round := 0; law.nsExp > 0 && round < 3; round++ {
		for i := range runs {
			if _, _, _, d := measure(runs[i], edits[i], reps, false); round == 0 || d < ns[i] {
				ns[i] = d
			}
		}
	}
	for i, size := range law.sizes {
		t.Logf("size %d: x = %.0f; per run %.0f B (%.1f per x), %.0f allocs, %.3f ms", size, xs[i], bytes[i], bytes[i]/xs[i], allocs[i], ns[i]/1e6)
		if law.bytesPerX > 0 && bytes[i]/xs[i] > law.bytesPerX {
			t.Errorf("size %d: %.1f B per unit of x, want ≤ %.0f", size, bytes[i]/xs[i], law.bytesPerX)
		}
	}
	for _, l := range []struct {
		cost  string
		ys    []float64
		bound float64
	}{{"bytes", bytes, law.bytesExp}, {"allocations", allocs, law.allocsExp}, {"ns", ns, law.nsExp}} {
		if l.bound == 0 {
			continue
		}
		exp := fitExponent(xs, l.ys)
		t.Logf("%s per run grow as x^%.2f (law: ≤ %.2f)", l.cost, exp, l.bound)
		if exp > l.bound {
			t.Errorf("%s per run grow as x^%.2f, want an exponent ≤ %.2f", l.cost, exp, l.bound)
		}
	}
}

// TestCostLaws holds each operation to the exponents of its costs, fitted
// by least squares to log cost against log work over three sizes at least
// 4× apart, in one process: an in-run shape, which a change that makes every
// size dearer alike does not move and a change in how a cost grows fails, on
// any host. Bytes and allocations are counted with the collector off after a
// warm run and repeat; ns is the process's CPU time, the best of three
// rounds, so a loaded host does not bend the fit. Time is what sees an
// accumulator go quadratic when its state loses O(1) membership.
func TestCostLaws(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates and slows on its own account")
	}
	acc, err := ParseProgram(`
seed: ins[acc].reach -> Y <- acc.start -> X, X.next -> Y.
step: ins[acc].reach -> Y <- ins(acc).reach -> X, X.next -> Y.
`)
	if err != nil {
		t.Fatal(err)
	}
	laws := []costLaw{{
		// One version collects the reachability of a chain of k nodes over k
		// iterations. It is extended in place, and past 24 entries its
		// membership test is a probe of its position index, so an iteration
		// costs what it adds. Re-copying the state per iteration costs O(k)
		// bytes per fired update; scanning it, O(k) time and no bytes.
		// Measured: 308-318 B per fired update, 32 of them the entry.
		name:  "accumulator",
		sizes: []int{1000, 4000, 16000},
		prepare: func(t *testing.T, k int) (func(), func() int) {
			ob := NewObjectBase()
			node := func(i int) OID { return Sym(fmt.Sprintf("n%d", i)) }
			ob.Insert(term.NewFact(term.GVID{Object: Sym("acc")}, "start", node(0)))
			ob.EnsureObject(Sym("acc"))
			for i := 0; i < k; i++ {
				ob.Insert(term.NewFact(term.GVID{Object: node(i)}, "next", node(i+1)))
				ob.EnsureObject(node(i))
			}
			return nil, applyRun(t, ob.Freeze(), acc)
		},
		bytesExp: 1.1, nsExp: 1.3,
		bytesPerX: 382, // measured × 1.2
	}, {
		// The apply of recursive_closure: the ancestors program on a head
		// that holds the closure, cached plans, no trace. It logs each fired
		// update in 48 bytes of the log the apply before it left and copies
		// no facts of the versions it fires on, so its bytes per fired update
		// are small and do not grow with the genealogy (what a run pays per
		// version is spread over more updates). A trace breaks the cap.
		name:  "closed closure",
		sizes: []int{6, 8, 10}, // generations
		prepare: func(t *testing.T, generations int) (func(), func() int) {
			head, p, opts := closedGenealogy(t, workload.GenealogySpec{Generations: generations, Branching: 2})
			return nil, applyRun(t, head, p, opts...)
		},
		bytesExp: 1.0, nsExp: 1.3,
		bytesPerX: 63, // measured × 1.2: 52 B per fired update at six generations, 15 B at ten
	}, {
		// The same re-apply as a server commits it: through repository.Apply,
		// which returns no result(P), so the fixpoint's own layer is the
		// working memory the apply before it left, like the log and the
		// targets. What is left grows with the journal record, not with the
		// versions the run derives (measured: 5.8, 6.0 and 7.1 kB per apply,
		// x^0.06; x^0.65 when every apply buys its own layer, x^0.79 when it
		// buys its whole working memory). Each apply names the default
		// iteration bound, which evaluates it as a plain apply is evaluated
		// but keeps the repository from proving it a no-op
		// (core.Engine.Provable). An edit of the base between two applies
		// would be an evaluation of its own, even taken as a follower takes
		// its primary's records, and would leave the next apply a working
		// memory trimmed to its size.
		name:  "committed closure",
		sizes: []int{6, 8, 10}, // generations
		reps:  4,
		prepare: func(t *testing.T, generations int) (func(), func() int) {
			r, p := committedClosure(t, generations)
			return nil, func() int {
				res, err := r.Apply(p, WithMaxIterations(defaultIterationBound))
				if err != nil {
					t.Fatal(err)
				}
				if res.Plan == "proved" {
					t.Fatal("an apply after an edit of the base was proved a no-op")
				}
				return res.Fired
			}
		},
		bytesExp: 0.15,
	}, {
		// The re-apply once an apply of it changed nothing: proved a no-op
		// (the repository's no-op record), not evaluated. It pays for its
		// journal record and the new head state, whatever the base (x is
		// its facts).
		name:  "proved no-op",
		sizes: []int{6, 8, 10}, // generations
		reps:  4,
		prepare: func(t *testing.T, generations int) (func(), func() int) {
			r, p := committedClosure(t, generations)
			if _, err := r.Apply(p); err != nil { // changes nothing: the record
				t.Fatal(err)
			}
			return nil, func() int {
				res, err := r.Apply(p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Plan != "proved" {
					t.Fatal("the re-apply of a program that changed nothing on the same head was evaluated")
				}
				return res.Final.Size()
			}
		},
		bytesExp: 0.1,
	}, {
		// A bulk commit pays for what it changes and for nothing per change
		// besides: the states of the raised employees, Derive's new root and
		// one journal record, its digest summed from the changed states, each
		// fact encoded in one buffer on the stack. The list of changes is
		// working memory the commit before it left, and the new root re-slots
		// the old root's states under its version index, 8 B a version
		// (measured: 175-185 B per changed employee; 205-212 B while the
		// entry kept its diff as two strings, 274-319 B when the new root
		// hashed every version into a table of its own, 339-385 B with
		// 48-byte state entries as well; 465-502 B when every commit bought
		// its list and rendered its diff three times). The changed employees
		// are the entry's count of added facts, one raised salary each.
		name:  "committed bulk raise",
		sizes: []int{500, 1500, 4500}, // employees; x is the changed objects
		reps:  4,
		prepare: func(t *testing.T, n int) (func(), func() int) {
			r, err := repository.Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: n, Seed: 1}.ObjectBase())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			p, err := ParseProgram(workload.BulkRaiseProgram)
			if err != nil {
				t.Fatal(err)
			}
			return nil, func() int {
				_, e, _, err := r.ApplyKey(p, "")
				if err != nil {
					t.Fatal(err)
				}
				return int(e.NumAdded)
			}
		},
		bytesExp:  1.1,
		bytesPerX: 222, // measured × 1.2
	}, {
		// A one-object update through repository.Apply and the first boss
		// probe of the head it publishes cost nearly the same on any base.
		// The largest head outgrows its delta layer and flattens twice in the
		// stream (every |base|/16 applies), and the new root re-slots the
		// old one's states at 8 B a version: 128 B an apply, averaged in,
		// whatever the base. What still grows is the path each Derive copies
		// in the delta layer's trie, deeper on a larger base (measured: 5.2,
		// 7.0 and 8.4 kB per apply, x^0.10; x^0.13 when the new root hashed
		// every version into a table of its own).
		name:  "point apply",
		sizes: []int{100, 1000, 10000}, // employees; x is the size
		reps:  1280,
		prepare: func(t *testing.T, n int) (func(), func() int) {
			r, progs := pointUpdateRepo(t, n, 64)
			t.Cleanup(func() { r.Close() })
			i := 64
			return nil, func() int {
				i++
				if _, err := r.Apply(progs[i%len(progs)]); err != nil {
					t.Fatal(err)
				}
				head, err := r.Head()
				if err != nil || head.Index().VIDsWithResult("", "boss", Sym("e0")).Len() == 0 {
					t.Fatalf("the boss probe of the new head found no reports of e0 (%v)", err)
				}
				return n
			}
		},
		bytesExp: 0.13, allocsExp: 0.1,
	}, {
		// A read costs what it returns: on a warm head the workload queries
		// probe the literal index and follow their answers, not the base. A
		// manager has nine reports on any base, so a run asks about the first
		// n/15 managers; a query that scanned the base (copying every boss
		// carrier: 5× per row from 300 to 3 000 employees) grows as rows².
		name:  "workload queries",
		sizes: []int{300, 1200, 4800}, // employees
		prepare: func(t *testing.T, n int) (func(), func() int) {
			head := enterpriseHead(t, n)
			return nil, func() int { return bossQueries(t, head, n/15) }
		},
		bytesExp: 1.1, nsExp: 1.3,
	}, {
		// A query answer costs its cells: the cached-plan closure query
		// copies each match's two cells into chunks that double in size,
		// and sorts one row header per answer by its rendering, with no
		// map entry, key string or slice of its own.
		name:  "query rows",
		sizes: []int{6, 8, 10}, // generations; x is the answers
		prepare: func(t *testing.T, generations int) (func(), func() int) {
			head, _, _ := closedGenealogy(t, workload.GenealogySpec{Generations: generations, Branching: 2})
			rows := cachedQuery(t, head, "X.anc -> A.")
			return nil, func() int {
				_, r := rows()
				return len(r)
			}
		},
		bytesExp: 1.1, allocsExp: 0.2, // a chunk per doubling
		bytesPerX: 160, // measured × 1.2: 134 B per answer at six generations, 95 at eight, 122 at ten
	}}
	for _, law := range laws {
		t.Run(law.name, law.check)
	}
}

// TestResidentTenantHeapGuard: a process keeps one evaluation's working
// memory, whatever the number of repositories it holds open. It opens 4, 8
// and 16 repositories, half serving the bulk raise on 1 500 employees and
// half the closure on 765 persons, applies five rounds round-robin, and
// holds the live heap they add, per repository, to what was measured × 1.2.
// At 4 it counts the one working memory too: the slot held a one-employee
// raise's before, a bulk raise's after, and at 8 and 16 a bulk raise's
// before as well. A working memory per repository would add what one commit
// retains (about 0.6 MB) to each: +37 % at 16.
func TestResidentTenantHeapGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("opens 28 repositories of up to 1 500 employees; skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	raise, err := ParseProgram(workload.BulkRaiseProgram)
	if err != nil {
		t.Fatal(err)
	}
	ancestors, err := ParseProgram(workload.AncestorsProgram)
	if err != nil {
		t.Fatal(err)
	}
	// What the tests before this one left in the working memory's slot is
	// trimmed to a one-employee raise, so that it does not count.
	if _, err := Apply(workload.EnterpriseSpec{Employees: 1, Seed: 1}.ObjectBase(), raise); err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// measured is the live heap per repository, in bytes, by tenants.
	measured := map[int]float64{4: 1_694_000, 8: 1_451_000, 16: 1_451_000}
	for _, tenants := range []int{4, 8, 16} {
		before, dir := liveHeap(), t.TempDir()
		repos := make([]*repository.Repository, tenants)
		progs := make([]*Program, tenants)
		for i := range repos {
			base, p := workload.EnterpriseSpec{Employees: 1500, Seed: int64(i)}.ObjectBase(), raise
			if i%2 == 1 {
				base, p = workload.GenealogySpec{Generations: 8, Branching: 2, Roots: 3}.ObjectBase(), ancestors
			}
			r, err := repository.Init(fmt.Sprintf("%s/repo%d", dir, i), base)
			if err != nil {
				t.Fatal(err)
			}
			repos[i], progs[i] = r, p
		}
		for range 5 {
			for i, r := range repos {
				if _, err := r.Apply(progs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		perTenant := float64(liveHeap()-before) / float64(tenants)
		for _, r := range repos {
			r.Close()
		}
		t.Logf("%d resident repositories: %.0f B of live heap each (measured %.0f)", tenants, perTenant, measured[tenants])
		if perTenant > 1.2*measured[tenants] {
			t.Errorf("%d resident repositories hold %.2f MB of live heap each, want ≤ %.2f (measured × 1.2) — does each keep a working memory of its own?", tenants, perTenant/1e6, 1.2*measured[tenants]/1e6)
		}
	}
}

// TestLayerScanAllocGuard: the delta layer Derive builds keeps no VID index
// for its first reader to rebuild — a scan walks the layer, which the
// flatten rule holds to a sixteenth of the root — so the first scan of a
// fresh head allocates the same few words whether the layer holds one
// version or a hundred.
func TestLayerScanAllocGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	root := workload.EnterpriseSpec{Employees: 3000, Seed: 21}.ObjectBase().Freeze()
	for range root.VIDsWith("", "sal") { // the root's own index is not the layer's
	}
	measure := func(versions int) (bytes, mallocs uint64) {
		changes := make([]objectbase.Change, versions)
		for i := range changes {
			v := term.GVID{Object: Sym(fmt.Sprintf("e%d", i))}
			old := root.StateOf(v)
			ns := old.Clone()
			ns.Add(term.MethodKey{Method: "note"}, Sym("touched"))
			changes[i] = objectbase.Change{V: v, Old: old, New: ns}
		}
		var head *ObjectBase
		seen := 0
		bytes, mallocs = firstUseAllocs(3, func() func() {
			head, seen = root.Derive(changes), 0
			return func() {
				for range head.VIDsWith("", "sal") {
					seen++
				}
			}
		})
		if head.Parent() != root {
			t.Fatalf("%d changes of 3000 versions did not leave a delta layer", versions)
		}
		if seen != 3000 {
			t.Fatalf("the scan saw %d versions, want 3000", seen)
		}
		return bytes, mallocs
	}
	oneB, oneA := measure(1)
	manyB, manyA := measure(100)
	t.Logf("first scan of a 1-version layer: %d B in %d allocations; of a 100-version layer: %d B in %d", oneB, oneA, manyB, manyA)
	if manyA > oneA+2 || manyB > oneB+128 || manyA > 8 {
		t.Errorf("the first scan of a fresh 100-version layer allocates %d B in %d allocations (1 version: %d B in %d), want O(1)", manyB, manyA, oneB, oneA)
	}
}

// firstUseAllocs counts what a first use costs: reps times, prepare builds
// a fresh subject and returns its first use, which is run with the
// collector off after a collection, as measure runs; the least bytes and
// allocations of the reps are returned. A collection that ends during a
// use would count what the runtime's cleanup goroutine allocates after it,
// and that goroutine may still be running when runtime.GC returns, so one
// use is not enough.
func firstUseAllocs(reps int, prepare func() (use func())) (bytes, mallocs uint64) {
	bytes, mallocs = math.MaxUint64, math.MaxUint64
	for range reps {
		use := prepare()
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		use()
		runtime.ReadMemStats(&m1)
		debug.SetGCPercent(gc)
		bytes, mallocs = min(bytes, m1.TotalAlloc-m0.TotalAlloc), min(mallocs, m1.Mallocs-m0.Mallocs)
	}
	return bytes, mallocs
}

// TestLayerProbeAllocGuard: a delta head's literal index lists, for a
// method, only the layer versions that changed it. The layer of a stream of
// raises changes salaries and no boss, so the first boss probe of a fresh
// head builds an empty own partition — the same few words whether the layer
// holds one version or a hundred — over the root's, and answers like a flat
// rebuild; a sal probe finds each changed version under its new salary, in
// the layer, and no longer under its old one.
func TestLayerProbeAllocGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	root := workload.EnterpriseSpec{Employees: 3000, Seed: 21}.ObjectBase().Freeze()
	root.Index().VIDsWithResult("", "boss", Sym("e7")) // the root's partition is not the layer's
	live := func(h objectbase.Hits) []term.GVID {
		var out []term.GVID
		for i := 0; i < h.Len(); i++ {
			if v, ok := h.At(i); ok {
				out = append(out, v)
			}
		}
		slices.SortFunc(out, func(a, b term.GVID) int { return strings.Compare(a.String(), b.String()) })
		return out
	}
	sal := func(i int) term.OID { return term.Int(int64(1_000_000 + i)) }
	measure := func(versions int) (bytes, mallocs uint64) {
		changes := make([]objectbase.Change, versions)
		for i := range changes {
			v := term.GVID{Object: Sym(fmt.Sprintf("e%d", i))}
			old := root.StateOf(v)
			ns := old.CloneWithoutMethod("sal")
			ns.Add(term.MethodKey{Method: "sal"}, sal(i))
			changes[i] = objectbase.Change{V: v, Old: old, New: ns}
		}
		// The first probe of a fresh head, three times over: the least is
		// its cost (see firstUseAllocs).
		var head *ObjectBase
		var hits objectbase.Hits
		bytes, mallocs = firstUseAllocs(3, func() func() {
			head = root.Derive(changes)
			return func() { hits = head.Index().VIDsWithResult("", "boss", Sym("e7")) }
		})
		if head.Parent() != root {
			t.Fatalf("%d changes of 3000 versions did not leave a delta layer", versions)
		}
		got, want := live(hits), live(head.Clone().Freeze().Index().VIDsWithResult("", "boss", Sym("e7")))
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%d-version layer: the boss probe reports %v, a flat rebuild %v", versions, got, want)
		}
		for i, c := range changes {
			if got := live(head.Index().VIDsWithResult("", "sal", sal(i))); !slices.Equal(got, []term.GVID{c.V}) {
				t.Errorf("%d-version layer: the probe of %s's new salary reports %v", versions, c.V, got)
			}
			for old := range c.Old.Results(term.MethodKey{Method: "sal"}) {
				if slices.Contains(live(head.Index().VIDsWithResult("", "sal", old)), c.V) {
					t.Errorf("%d-version layer: the probe of %s's old salary still reports it", versions, c.V)
				}
			}
		}
		return bytes, mallocs
	}
	oneB, oneA := measure(1)
	manyB, manyA := measure(100)
	t.Logf("first boss probe of a 1-version layer: %d B in %d allocations; of a 100-version layer: %d B in %d", oneB, oneA, manyB, manyA)
	if manyA > oneA+2 || manyB > oneB+128 || manyB > 1024 {
		t.Errorf("the first boss probe of a fresh 100-version layer allocates %d B in %d allocations (1 version: %d B in %d), want O(1)", manyB, manyA, oneB, oneA)
	}
}

// TestNewRootInheritsIndexesGuard (ROADMAP item 3(a)): a bulk apply leaves a
// new root, and the root it replaces had its VID index and its boss
// partition built by the queries before. A raise moves no version in or out
// of a (path, method) set and rewrites no boss application, so the new root
// is born with both: its first scan and its first boss probe allocate
// nothing. An update that does move versions — one new method on about half
// the employees — makes the first reader pay for nothing either: the new set
// is there, the others still are.
func TestNewRootInheritsIndexesGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	r, err := repository.Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: 1500, Seed: 21}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	raise, err := ParseProgram(workload.BulkRaiseProgram)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(p *Program) *ObjectBase {
		t.Helper()
		if _, err := r.Apply(p); err != nil {
			t.Fatal(err)
		}
		head, err := r.Head()
		if err != nil {
			t.Fatal(err)
		}
		if head.Parent() != nil {
			t.Fatalf("an update of most of the base left a delta layer")
		}
		return head
	}
	// firstReads is what the first reader of a head allocates for one scan
	// and one boss probe, and what they found.
	firstReads := func(head *ObjectBase, method string) (bytes uint64, scanned, reports int) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range head.VIDsWith("", method) {
			scanned++
		}
		reports = head.Index().VIDsWithResult("", "boss", Sym("e7")).Len()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, scanned, reports
	}
	for i := 0; i < 2; i++ { // warm: the second head's predecessor has been read
		bossQueries(t, apply(raise), 20)
	}
	_, _, reports := firstReads(apply(raise), "sal")

	bytes, scanned, got := firstReads(apply(raise), "sal")
	t.Logf("after a bulk raise: first scan + first boss probe allocate %d B (%d versions, %d reports)", bytes, scanned, got)
	if scanned != 1500 || got != reports || reports == 0 {
		t.Fatalf("the scan saw %d versions and the probe %d reports, want 1500 and %d", scanned, got, reports)
	}
	if bytes > 512 {
		t.Errorf("the first scan and boss probe of a new root allocate %d B, want nothing: the indexes are inherited", bytes)
	}

	flag, err := ParseProgram(`f: ins[E].flag -> yes <- E.isa -> empl, E.sal -> S, S >= 3100.`)
	if err != nil {
		t.Fatal(err)
	}
	head := apply(flag)
	bytes, flagged, got := firstReads(head, "flag")
	t.Logf("after flagging %d employees: first scan + first boss probe allocate %d B", flagged, bytes)
	if flagged < 500 || flagged > 1000 || flagged != head.CountVIDsWith("", "flag") || got != reports {
		t.Fatalf("the scan saw %d flagged versions (count %d) and the probe %d reports, want about half of 1500 and %d", flagged, head.CountVIDsWith("", "flag"), got, reports)
	}
	if n := head.CountVIDsWith("", "sal"); n != 1500 {
		t.Errorf("CountVIDsWith sal = %d after the flags, want 1500", n)
	}
	if bytes > 512 {
		t.Errorf("the first scan and boss probe after the flags allocate %d B, want nothing", bytes)
	}
}
