package verlog

// The times of EXPERIMENTS.md: one testing.B benchmark per experiment. For
// the paper experiments E1-E9 the counts and correctness checks of the same
// runs are the tables of internal/bench, held against golden files; these
// benchmarks are the only source of their times. The later experiments (E11
// onwards) have no table: each benchmark checks, once before its timer
// starts or after it stops, what its experiment claims. Sub-benchmarks carry
// the sweep parameter.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verlog/internal/baseline"
	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/fsio"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/repository"
	"verlog/internal/storage"
	"verlog/internal/strata"
	"verlog/internal/term"
	"verlog/internal/workload"
)

func mustParseProgram(b testing.TB, src string) *Program {
	b.Helper()
	p, err := ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func apply(b *testing.B, ob *ObjectBase, p *Program, opts ...Option) *Result {
	b.Helper()
	res, err := Apply(ob, p, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// reportWork reports the work counts of one apply (eval.Work): they repeat
// from apply to apply, so the last one stands for every op.
func reportWork(b *testing.B, w eval.Work) {
	b.ReportMetric(float64(w.Probes), "probes/op")
	b.ReportMetric(float64(w.Scanned), "scanned/op")
	b.ReportMetric(float64(w.Copied), "copied/op")
	b.ReportMetric(float64(w.Moved), "moved/op")
}

// BenchmarkE1SalaryRaise — Section 2.1: one modify per employee, scaling.
func BenchmarkE1SalaryRaise(b *testing.B) {
	p := mustParseProgram(b, workload.SalaryRaiseProgram)
	for _, n := range []int{100, 1000, 10000} {
		ob := workload.EnterpriseSpec{Employees: n, Seed: 42}.ObjectBase().Freeze()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := apply(b, ob, p)
				if res.Fired != n {
					b.Fatalf("fired = %d, want %d", res.Fired, n)
				}
			}
		})
	}
}

// BenchmarkE2Enterprise — Figure 2 / Section 2.3: the four-rule enterprise
// update over generated org charts.
func BenchmarkE2Enterprise(b *testing.B) {
	p := mustParseProgram(b, workload.EnterpriseProgram)
	for _, n := range []int{100, 1000, 5000, 10000} {
		ob := workload.EnterpriseSpec{Employees: n, Seed: 7}.ObjectBase().Freeze()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for i := 0; i < b.N; i++ {
				res = apply(b, ob, p)
			}
			reportWork(b, res.Stats.Work)
		})
	}
}

// BenchmarkE3Hypothetical — Section 2.3: hypothetical raise and revision.
func BenchmarkE3Hypothetical(b *testing.B) {
	const prog = `
rule1: mod[E].sal -> (S, S') <- E.sal -> S / factor -> F, S' = S * F.
rule2: mod[mod(E)].sal -> (S', S) <- mod(E).sal -> S', E.sal -> S.
rule3: ins[mod(mod(peter))].richest -> no <-
       mod(E).sal -> SE, mod(peter).sal -> SP, SE > SP.
rule4: ins[ins(mod(mod(peter)))].richest -> yes <-
       !ins(mod(mod(peter))).richest -> no.
`
	p := mustParseProgram(b, prog)
	for _, n := range []int{10, 100, 1000} {
		src := "peter.isa -> empl / sal -> 1000 / factor -> 3.\n"
		for i := 0; i < n-1; i++ {
			src += fmt.Sprintf("c%d.isa -> empl / sal -> %d / factor -> 2.\n", i, 1000+i%400)
		}
		ob, err := ParseObjectBase(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				apply(b, ob, p)
			}
		})
	}
}

// BenchmarkE4Ancestors — Section 2.3: recursive closure over genealogies.
func BenchmarkE4Ancestors(b *testing.B) {
	p := mustParseProgram(b, workload.AncestorsProgram)
	for _, gen := range []int{4, 6, 8} {
		spec := workload.GenealogySpec{Generations: gen, Branching: 2}
		ob := spec.ObjectBase()
		b.Run(fmt.Sprintf("generations=%d", gen), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				apply(b, ob, p)
			}
		})
	}
}

// BenchmarkE24ClosedClosure — the evaluation behind the recursive_closure
// workload: the ancestors program on a frozen head that already holds the
// closure (3 roots × 8 generations, 765 persons), cached plans. Everything
// fires, nothing changes. "commit" is the evaluation every server apply
// runs: no trace, and no result(P) (core.WithDropResult), its fixpoint and
// its change list built in the working memory the run before it left.
// "apply" keeps result(P), as verlog.Apply does; "replay" adds the trace,
// which is what history and explain pay, once per state they are asked
// about (Repository.Replay).
func BenchmarkE24ClosedClosure(b *testing.B) {
	p := mustParseProgram(b, workload.AncestorsProgram)
	spec := workload.GenealogySpec{Generations: 8, Branching: 2, Roots: 3}
	head := apply(b, spec.ObjectBase(), p).Final
	plans, err := eval.Compile(head, p, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		opts  []Option
		trace int
	}{
		{"commit", []Option{core.WithPlans(plans), core.WithDropResult()}, 0},
		{"apply", []Option{core.WithPlans(plans)}, 0},
		{"replay", []Option{core.WithPlans(plans), WithTrace()}, spec.AncestorPairs()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var work eval.Work
			for i := 0; i < b.N; i++ {
				res := apply(b, head, p, c.opts...)
				if res.Fired != spec.AncestorPairs() || len(res.Trace) != c.trace || len(res.Changes) != 0 {
					b.Fatalf("fired %d, trace %d, changes %d; want %d, %d, 0",
						res.Fired, len(res.Trace), len(res.Changes), spec.AncestorPairs(), c.trace)
				}
				work = res.Stats.Work
				res.Release() // as the commit does once its record is written
			}
			reportWork(b, work)
		})
	}
}

// BenchmarkE33ChangingClosure — the recursive_closure apply on a genealogy
// that changes between applies: the ancestors program committed on the
// closed head of E24, each apply following, outside the timer, a commit that
// gives a leaf a new child, so that every apply evaluates and adds the
// child's eight ancestors. "evaluated" times those applies. "proved" times
// the apply after the one that found nothing more to add: the repository
// proves it a no-op instead of evaluating it, and the benchmark reports its
// CPU time against that of the evaluated apply that changed nothing
// (proved/evaluated), a ratio of two measurements of one run.
func BenchmarkE33ChangingClosure(b *testing.B) {
	p := mustParseProgram(b, workload.AncestorsProgram)
	spec := workload.GenealogySpec{Generations: 8, Branching: 2, Roots: 3}
	head := apply(b, spec.ObjectBase(), p).Final
	for _, arm := range []string{"evaluated", "proved"} {
		b.Run(arm, func(b *testing.B) {
			r, err := repository.Init(b.TempDir()+"/repo", head)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			// closure applies p, checks whether it changed something and whether
			// it was proved, and returns its CPU time.
			closure := func(changes, wantProved bool) time.Duration {
				start := cpuTime()
				res, e, _, err := r.ApplyKey(p, "")
				d := cpuTime() - start
				if err != nil {
					b.Fatal(err)
				}
				if (e.NumAdded != 0) != changes || (res.Plan == "proved") != wantProved {
					b.Fatalf("closure apply %d: added %d facts, plan %s", e.Seq, e.NumAdded, res.Plan)
				}
				return d
			}
			var evaluated, proved time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				child := mustParseProgram(b, fmt.Sprintf("ins[c%d].isa -> person. ins[c%d].parents -> p0_7_254.", i, i))
				if _, err := r.Apply(child); err != nil {
					b.Fatal(err)
				}
				if arm == "evaluated" {
					b.StartTimer()
					closure(true, false)
					continue
				}
				closure(true, false)
				evaluated += closure(false, false)
				b.StartTimer()
				proved += closure(false, true)
			}
			b.StopTimer()
			if arm == "proved" {
				b.ReportMetric(float64(proved)/float64(evaluated), "proved/evaluated")
			}
		})
	}
}

// BenchmarkE34BulkApply commits workload.BulkRaiseProgram through
// repository.ApplyKey on 1 500 employees, as bulk_raise does end to end: the
// bytes are the states of the raised employees and Derive's new root; the
// digest is summed from the changed states, and the entry keeps no diff
// (EXPERIMENTS.md, E34). Five applies first, so that the
// evaluation's working memory is parked and the repository's buffers grown.
func BenchmarkE34BulkApply(b *testing.B) {
	r, err := repository.Init(b.TempDir()+"/repo", workload.EnterpriseSpec{Employees: 1500, Seed: 1}.ObjectBase())
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	p := mustParseProgram(b, workload.BulkRaiseProgram)
	commit := func() *Result {
		res, e, _, err := r.ApplyKey(p, "")
		if err != nil || e.NumAdded == 0 {
			b.Fatalf("bulk raise: %v, added %d facts", err, e.NumAdded)
		}
		return res
	}
	for range 5 {
		commit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res = commit()
	}
	reportWork(b, res.Stats.Work)
}

// BenchmarkE5VersionChains — Figure 1: k consecutive update groups.
func BenchmarkE5VersionChains(b *testing.B) {
	for _, k := range []int{1, 4, 8, 12} {
		p := mustParseProgram(b, workload.ChainProgram(k))
		ob := workload.Items(200)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := apply(b, ob, p)
				if res.Assignment.NumStrata() != k {
					b.Fatalf("strata = %d, want %d", res.Assignment.NumStrata(), k)
				}
			}
		})
	}
}

// BenchmarkE6Stratify — Section 4: stratification cost over program size.
func BenchmarkE6Stratify(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		p := mustParseProgram(b, workload.LayeredProgram(n, 4))
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := strata.Stratify(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Linearity — Section 5: the online version-linearity check on
// an accepted linear chain (the check is folded into evaluation).
func BenchmarkE7Linearity(b *testing.B) {
	p := mustParseProgram(b, workload.ChainProgram(6))
	ob := workload.Items(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		apply(b, ob, p)
	}
}

// BenchmarkE8FrameOverhead — Section 3, footnote 4: the sweeps of the E8
// table. Copy cost against the fraction of touched objects, against the
// touched objects' payload at 10 % touched, and against the base size at a
// fixed touched count — the footnote's claim: that row's time tracks the
// touched objects, not the base.
func BenchmarkE8FrameOverhead(b *testing.B) {
	run := func(name string, objects, methods int, prog string) {
		ob := workload.TouchedSpec{Objects: objects, Methods: methods}.ObjectBase().Freeze()
		p := mustParseProgram(b, prog)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				apply(b, ob, p)
			}
		})
	}
	for _, pct := range []int{1, 10, 50, 100} {
		run(fmt.Sprintf("touched=%d%%", pct), 2000, 8, workload.TouchProgram(pct))
	}
	for _, m := range []int{8, 32, 128} {
		run(fmt.Sprintf("payload=%d", m), 1000, m, workload.TouchProgram(10))
	}
	for _, n := range []int{1000, 4000, 16000} {
		run(fmt.Sprintf("base=%d", n), n, 8, workload.TouchFirstProgram(100))
	}
}

// BenchmarkE9ControlVsInflationary — Section 2.4: the versioned engine vs
// the flat baselines on the enterprise control problem.
func BenchmarkE9ControlVsInflationary(b *testing.B) {
	const base = `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4100.
`
	flatProg := mustParseProgram(b, `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[E].* <- E.isa -> empl / boss -> B / sal -> SE, B.isa -> empl / sal -> SB, SE > SB.
rule4: ins[E].isa -> hpe <- E.isa -> empl / sal -> S, S > 4500.
`)
	versioned := mustParseProgram(b, workload.EnterpriseProgram)
	ob, err := ParseObjectBase(base)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verlog", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			apply(b, ob, versioned)
		}
	})
	b.Run("inflationary-12iters", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (baseline.Inflationary{MaxIterations: 12}).Run(ob, flatProg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential-right-order", func(b *testing.B) {
		b.ReportAllocs()
		sq := baseline.Sequential{Groups: [][]int{{0, 1}, {2}, {3}}, OnePass: true}
		for i := 0; i < b.N; i++ {
			if _, err := sq.Run(ob, flatProg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11VsDirect — overhead factor vs the hand-coded updater. Before
// the timer starts, the engine's ob' must agree with the updater on who
// survives and who is high-paid.
func BenchmarkE11VsDirect(b *testing.B) {
	p := mustParseProgram(b, workload.EnterpriseProgram)
	spec := workload.EnterpriseSpec{Employees: 1000, Seed: 99}
	emps := spec.Generate()
	ob := workload.EmployeesToBase(emps).Freeze()
	final := apply(b, ob, p).Final
	direct := baseline.FromWorkload(emps)
	baseline.DirectEnterprise(direct)
	for _, e := range direct {
		v := term.GVID{Object: term.Sym(e.Name)}
		alive := final.Has(term.NewFact(v, "isa", term.Sym("empl")))
		high := final.Has(term.NewFact(v, "isa", term.Sym("hpe")))
		if alive == e.Fired || high != e.HighPay {
			b.Fatalf("%s: verlog kept=%v hpe=%v, direct fired=%v hpe=%v", e.Name, alive, high, e.Fired, e.HighPay)
		}
	}
	b.Run("verlog", func(b *testing.B) {
		b.ReportAllocs()
		var res *Result
		for i := 0; i < b.N; i++ {
			res = apply(b, ob, p)
		}
		reportWork(b, res.Stats.Work)
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			direct := baseline.FromWorkload(emps)
			baseline.DirectEnterprise(direct)
		}
	})
}

// BenchmarkE14Planner — ablation: static vs statistics join ordering, on the
// enterprise mix and on a needle in a haystack (20 special items of 20 000,
// whose rule leads with the unselective literal in source order). The static
// arm compiles its plans in source order and hands them to the run the way
// the repository hands over cached ones; both arms compile once per apply.
// Before the timers start, both arms must reach the same result(P), and the
// needle rule must fire 20 times.
func BenchmarkE14Planner(b *testing.B) {
	needle := workload.TouchedSpec{Objects: 20000, Methods: 2}.ObjectBase()
	for i := 0; i < 20; i++ {
		needle.Insert(term.NewFact(term.GVID{Object: term.Sym(fmt.Sprintf("obj%d", i*1000))}, "special", term.Sym("yes")))
	}
	for _, w := range []struct {
		name  string
		ob    *ObjectBase
		p     *Program
		fired int
	}{
		{"", workload.EnterpriseSpec{Employees: 2000, ManagerFraction: 0.05, Seed: 33}.ObjectBase().Freeze(),
			mustParseProgram(b, workload.EnterpriseProgram), -1},
		{"needle/", needle.Freeze(),
			mustParseProgram(b, `find: ins[X].flagged -> yes <- X.isa -> item, X.special -> yes, X.val -> V, V >= 0.`), 20},
	} {
		static := func() []Option {
			plans, err := eval.Compile(w.ob, w.p, true)
			if err != nil {
				b.Fatal(err)
			}
			return []Option{core.WithPlans(plans)}
		}
		byStatic, byStats := apply(b, w.ob, w.p, static()...), apply(b, w.ob, w.p)
		if !byStatic.Result.Equal(byStats.Result) || (w.fired >= 0 && byStats.Fired != w.fired) {
			b.Fatalf("%sstatic and statistics plans disagree (fired %d and %d)", w.name, byStatic.Fired, byStats.Fired)
		}
		b.Run(w.name+"static", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				apply(b, w.ob, w.p, static()...)
			}
		})
		b.Run(w.name+"statistics", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				apply(b, w.ob, w.p)
			}
		})
	}
}

// BenchmarkApplyTracingOff / BenchmarkApplyTracingOn — E15: the span-tree
// tracer's cost. Off is the default path (nil span, counters only) and is
// the guard: it must stay within a few percent of the pre-tracing engine.
// On pays for span allocation, per-iteration rule spans and pprof labels.
func BenchmarkApplyTracingOff(b *testing.B) {
	p := mustParseProgram(b, workload.EnterpriseProgram)
	ob := workload.EnterpriseSpec{Employees: 1000, Seed: 42}.ObjectBase().Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		apply(b, ob, p)
	}
}

func BenchmarkApplyTracingOn(b *testing.B) {
	p := mustParseProgram(b, workload.EnterpriseProgram)
	ob := workload.EnterpriseSpec{Employees: 1000, Seed: 42}.ObjectBase().Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewSpanTrace("bench")
		apply(b, ob, p, WithSpan(tr.Root))
		tr.Finish()
	}
}

// BenchmarkE12Finalize — Section 5: building ob' from final versions.
func BenchmarkE12Finalize(b *testing.B) {
	p := mustParseProgram(b, workload.ChainProgram(8))
	ob := workload.Items(2000)
	res := apply(b, ob, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Finalize(res.Result)
	}
}

const benchRepoBase = `henry.isa -> empl / sal -> 100.`

const benchRepoRaise = `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 10.`

func newBenchRepo(b *testing.B) *repository.Repository {
	b.Helper()
	ob, err := ParseObjectBase(benchRepoBase)
	if err != nil {
		b.Fatal(err)
	}
	r, err := repository.Init(b.TempDir()+"/repo", ob)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// pointUpdateRepo is the E21 fixture: a repository holding n generated
// employees, and a ring of pre-parsed one-object updates spread over them
// (far more distinct texts than the plan cache has slots, as in the
// end-to-end point_update workload, and more distinct objects than the
// delta layer of a 10⁴-employee head may hold, so that a long enough run
// crosses the flatten threshold). Before it returns it commits warm of
// them.
func pointUpdateRepo(tb testing.TB, n, warm int) (*repository.Repository, []*Program) {
	tb.Helper()
	r, err := repository.Init(tb.TempDir()+"/repo", workload.EnterpriseSpec{Employees: n, Seed: 21}.ObjectBase())
	if err != nil {
		tb.Fatal(err)
	}
	const ring = 1021
	progs := make([]*Program, ring)
	for i := range progs {
		e := fmt.Sprintf("e%d", i*n/ring)
		p, err := ParseProgram(fmt.Sprintf(`r: mod[%s].sal -> (S, S') <- %s.sal -> S, S' = S + 1.`, e, e))
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = p
	}
	for i := 0; i < warm; i++ {
		if _, err := r.Apply(progs[i%ring]); err != nil {
			tb.Fatal(err)
		}
	}
	return r, progs
}

// BenchmarkE21PointUpdate — ROADMAP item 1: one-object updates through
// repository.Apply on bases of growing size. What an apply allocates must
// follow what it touches, not the base: B/op and allocs/op stay flat from
// n = 10² to n = 10⁵ (ns/op is dominated by the journal fsync).
func BenchmarkE21PointUpdate(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, progs := pointUpdateRepo(b, n, 32)
			defer r.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Apply(progs[i%len(progs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE25QueryScaling — ROADMAP item 3(a): a read costs what it
// returns. The two query shapes of the end-to-end workloads — a point lookup
// and the result-constant join over a manager's reports — against a warm
// head of growing size: B/op and allocs/op stay flat from n = 300 to
// n = 30 000 (a manager has nine reports whatever n is). The one-off cost a
// head pays for being read — the first join builds the boss partition of its
// literal index — is the build sub-benchmark.
func BenchmarkE25QueryScaling(b *testing.B) {
	for _, n := range []int{300, 3000, 30000} {
		head := enterpriseHead(b, n)
		bossQueries(b, head, 20)
		shapes := []struct{ name, format string }{
			{"point", "e%d.sal -> S."},
			{"join", "E.boss -> e%d, E.sal -> S."},
		}
		for _, q := range shapes {
			b.Run(fmt.Sprintf("%s/n=%d", q.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Query(head, fmt.Sprintf(q.format, i%20)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("build/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := head.Clone().Freeze()
				for range fresh.VIDsWith("", "boss") { // the VID index is not the literal index's cost
				}
				b.StartTimer()
				if _, err := Query(fresh, "E.boss -> e7, E.sal -> S."); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE26QueryRows: what a cached-plan query pays per answer, on the
// two reads of the end-to-end workloads that return many: the closure
// (X.anc -> A. on one genealogy of 8 generations, 1 538 answers) and a
// manager's reports on 3 000 employees.
func BenchmarkE26QueryRows(b *testing.B) {
	closure, _, _ := closedGenealogy(b, workload.GenealogySpec{Generations: 8, Branching: 2})
	for _, c := range []struct {
		name, query string
		head        *ObjectBase
	}{
		{"closure", "X.anc -> A.", closure},
		{"boss", "E.boss -> e0, E.sal -> S.", enterpriseHead(b, 3000)},
	} {
		rows := cachedQuery(b, c.head, c.query)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				_, r := rows()
				n = len(r)
			}
			b.ReportMetric(float64(n), "answers")
		})
	}
}

// BenchmarkE23OpenBulkJournal — E23: what history costs. A repository of
// 1 500 employees takes 100 bulk raises (3 000 changed facts each); the
// benchmark times Open on it — read, check and replay the journal — and
// reports the journal bytes per changed fact and the heap the resident
// history holds per entry (live heap with the history minus live heap
// after Compact dropped it).
func BenchmarkE23OpenBulkJournal(b *testing.B) {
	const applies = 100
	dir := b.TempDir() + "/repo"
	r, err := repository.Init(dir, workload.EnterpriseSpec{Employees: 1500, Seed: 23}.ObjectBase())
	if err != nil {
		b.Fatal(err)
	}
	raise := mustParseProgram(b, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`)
	facts := 0
	checkpoint, _ := r.HistoryBytes() // the journal's head, which is no history
	for i := 0; i < applies; i++ {
		if _, err := r.Apply(raise); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range r.Log() {
		facts += int(e.NumAdded + e.NumRemoved)
	}
	journal, _ := r.HistoryBytes()
	r.Close()
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err = repository.Open(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	with := liveHeap()
	snapshot, _ := r.At(0) // held across Compact, so that only the entries go
	if err := r.Compact(); err != nil {
		b.Fatal(err)
	}
	without := liveHeap()
	runtime.KeepAlive(snapshot)
	runtime.KeepAlive(r) // and the head with it: the repository is measured, not dropped
	b.ReportMetric(float64(journal-checkpoint)/float64(facts), "journal-B/fact")
	b.ReportMetric((float64(with)-float64(without))/applies, "resident-B/entry")
}

// BenchmarkE31RecoverByReevaluation — E31: what recovery by evaluation
// costs. On E23's history (1 500 employees, 100 bulk raises) each iteration
// times Open, which evaluates every journaled program and checks its digest,
// and then the same head rebuilt the way recovery rebuilt it when records
// carried their diffs: the checkpoint read back, and each entry's diff —
// rendered outside the timer from the heads on either side of it — decoded
// and applied to it. It reports the ratio of the two times (evaluate/replay,
// two measurements of one run), the journal bytes per entry and the resident
// bytes of each entry (its program and key: an entry keeps no diff).
func BenchmarkE31RecoverByReevaluation(b *testing.B) {
	const applies = 100
	dir := b.TempDir() + "/repo"
	r, err := repository.Init(dir, workload.EnterpriseSpec{Employees: 1500, Seed: 23}.ObjectBase())
	if err != nil {
		b.Fatal(err)
	}
	raise := mustParseProgram(b, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`)
	checkpoint, _ := r.HistoryBytes()
	diffs := make([][2]storage.Facts, applies)
	for i := range diffs {
		before, _ := r.Head()
		if _, err := r.Apply(raise); err != nil {
			b.Fatal(err)
		}
		after, _ := r.Head()
		diffs[i][0], diffs[i][1] = storage.EncodeDiff(objectbase.Compute(before, after))
	}
	journal, resident := r.HistoryBytes()
	want, _ := r.Head()
	r.Close()
	var evaluate, replay time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		r, err := repository.Open(dir)
		evaluate += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if head, _ := r.Head(); !head.Equal(want) {
			b.Fatal("Open rebuilt another head")
		}
		r.Close()
		b.StartTimer()

		start = time.Now()
		f, err := os.Open(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		snap, err := storage.ReadLog(f, func([]byte) error { return nil })
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		for _, diff := range diffs {
			var d objectbase.Diff
			if d.Added, err = diff[0].Decode(); err == nil {
				d.Removed, err = diff[1].Decode()
			}
			if err != nil {
				b.Fatal(err)
			}
			d.Apply(snap.Base)
		}
		replay += time.Since(start)
		b.StopTimer()
		if !snap.Base.Equal(want) {
			b.Fatal("the diff replay rebuilt another head")
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(evaluate)/float64(replay), "evaluate/replay")
	b.ReportMetric(float64(journal-checkpoint)/applies, "journal-B/entry")
	b.ReportMetric(float64(resident)/applies, "resident-B/entry")
}

// BenchmarkE36HistoryAt — E36: what a state the head has passed costs now
// that an entry keeps no diff. E23's history (1 500 employees, seed 23, 100
// bulk raises) is reopened, so that the head and the checkpoint are the only
// resident states, and each iteration asks At for state k, which evaluates
// the first k programs from the checkpoint and checks each against its
// entry. Each row also reports what a kept state would cost instead: the
// live heap of the entries per entry (resident-B/entry, measured as E23
// measures it, on a copy of the directory) and the live heap one frozen
// state held beside the head costs (held-state-B) — what a head retained
// every m entries would hold per m entries.
func BenchmarkE36HistoryAt(b *testing.B) {
	const applies = 100
	dir := b.TempDir()
	r, err := repository.Init(dir+"/repo", workload.EnterpriseSpec{Employees: 1500, Seed: 23}.ObjectBase())
	if err != nil {
		b.Fatal(err)
	}
	raise := mustParseProgram(b, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`)
	for i := 0; i < applies; i++ {
		if _, err := r.Apply(raise); err != nil {
			b.Fatal(err)
		}
	}
	r.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "repo", "journal.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "copy"), 0o755); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "copy", "journal.jsonl"), journal, 0o644); err != nil {
		b.Fatal(err)
	}
	liveHeap := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	// The entries' heap: the copy opened, less the same after Compact
	// dropped its entries, the checkpoint's state held across.
	c, err := repository.Open(filepath.Join(dir, "copy"))
	if err != nil {
		b.Fatal(err)
	}
	snapshot, _ := c.At(0)
	with := liveHeap()
	if err := c.Compact(); err != nil {
		b.Fatal(err)
	}
	resident := (with - liveHeap()) / applies
	runtime.KeepAlive(snapshot)
	runtime.KeepAlive(c)
	c.Close()

	if r, err = repository.Open(filepath.Join(dir, "repo")); err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	before := liveHeap()
	held, err := r.At(applies / 2)
	if err != nil {
		b.Fatal(err)
	}
	heldState := liveHeap() - before
	runtime.KeepAlive(held)
	for _, k := range []int{1, 25, 50, 99} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.At(k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(resident, "resident-B/entry")
			b.ReportMetric(heldState, "held-state-B")
		})
	}
}

// BenchmarkE32Checkpoint — E32: what a Compact costs. A repository of 3 000
// employees takes 20 point updates, built outside the timer; each iteration
// compacts a fresh one, in full or keeping a retention tail of 10 entries.
// Besides B/op and allocs/op it reports, per Compact, the journal's bytes
// after it (journal-B), the bytes of every file the directory then holds
// (dir-B: a Compact rewrites every file it leaves, so this is what it
// wrote) and the durable operations it made (durable-ops: fsio.Fault's
// count of creates, writes, fsyncs, renames, removes, truncates and
// directory syncs). The verify case runs Verify alone on the same head,
// the check every Compact makes first.
func BenchmarkE32Checkpoint(b *testing.B) {
	const employees, applies = 3000, 20
	base := workload.EnterpriseSpec{Employees: employees, Seed: 32}.ObjectBase()
	var progs []*Program
	for i := range applies {
		e := fmt.Sprintf("e%d", i*employees/applies)
		progs = append(progs, mustParseProgram(b, fmt.Sprintf(`r: mod[%s].sal -> (S, S') <- %s.sal -> S, S' = S + 1.`, e, e)))
	}
	for _, tail := range []int{0, 10} {
		b.Run(map[int]string{0: "full", 10: "retain=10"}[tail], func(b *testing.B) {
			b.ReportAllocs()
			var ops, journal, dir int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs := fsio.NewFault()
				r, err := repository.InitFS(fmt.Sprintf("%s/%d", b.TempDir(), i), base, fs)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range progs {
					if _, err := r.Apply(p); err != nil {
						b.Fatal(err)
					}
				}
				r.SetRetention(func() int { return applies - tail })
				before := fs.Count()
				b.StartTimer()
				if err := r.Compact(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if r.Len() != tail {
					b.Fatalf("%d entries after the compact, want %d", r.Len(), tail)
				}
				ops += int64(fs.Count() - before)
				files, err := os.ReadDir(r.Dir())
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range files {
					info, err := f.Info()
					if err != nil {
						b.Fatal(err)
					}
					if dir += info.Size(); f.Name() == "journal.jsonl" {
						journal += info.Size()
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(ops)/float64(b.N), "durable-ops")
			b.ReportMetric(float64(journal)/float64(b.N), "journal-B")
			b.ReportMetric(float64(dir)/float64(b.N), "dir-B")
		})
	}
	// Verify alone on the same head: what every Compact spends before it
	// writes a byte.
	b.Run("verify", func(b *testing.B) {
		r, err := repository.Init(b.TempDir()+"/repo", base)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range progs {
			if _, err := r.Apply(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE16MixedReadWrite — E16: per-read latency of the published
// head with and without in-flight applies. Reads are a single atomic
// pointer load, so the sub-benchmarks should stay within the same order
// of magnitude — a reader never waits for an in-flight journal fsync.
func BenchmarkE16MixedReadWrite(b *testing.B) {
	raise := mustParseProgram(b, benchRepoRaise)
	for _, writers := range []int{0, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			r := newBenchRepo(b)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var wid atomic.Int64
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, _, _, err := r.ApplyKey(raise, fmt.Sprintf("w%d", wid.Add(1))); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				head, seq := r.Snapshot()
				// Salary is a commit counter: a torn read would miss this.
				if !head.Has(term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(int64(100+10*seq)))) {
					b.Fatalf("inconsistent snapshot at seq %d", seq)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkE17MultiWriter — E17: concurrent ApplyKey throughput. The
// recs/fsync metric is the group-commit amortization: >1 means multiple
// commits shared a single journal write+fsync. evals/apply is evaluations
// run per committed update; evaluation is serial, so anything but 1 means
// an apply's work was thrown away and fails the benchmark. So does a head
// that misses a commit, or a journal that does not replay to it.
func BenchmarkE17MultiWriter(b *testing.B) {
	raise := mustParseProgram(b, benchRepoRaise)
	for _, writers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			r := newBenchRepo(b)
			reg := obs.NewRegistry()
			r.Instrument(reg)
			batches := reg.Counter("verlog_commit_batches_total", "Group-commit batches flushed (one fsync each).")
			records := reg.Counter("verlog_commit_batch_records_total", "Journal records flushed across all group-commit batches.")
			applies := reg.Counter("verlog_applies_total", "Committed updates (idempotent replays excluded).")
			planHits := reg.Counter("verlog_plan_cache_hits_total", "Applies that reused cached compiled match plans.")
			planMisses := reg.Counter("verlog_plan_cache_misses_total", "Applies that compiled match plans afresh.")
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if _, _, _, err := r.ApplyKey(raise, fmt.Sprintf("k%d", i)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			// Every commit is durable and applied once: the salary counts the
			// commits, and the journal replays to the head.
			head, seq := r.Snapshot()
			if seq != b.N || !head.Has(term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(int64(100+10*b.N)))) {
				b.Errorf("head at seq %d after %d commits does not hold their raises", seq, b.N)
			}
			if err := r.Verify(); err != nil {
				b.Error(err)
			}
			if f := batches.Value(); f > 0 {
				b.ReportMetric(float64(records.Value())/float64(f), "recs/fsync")
			}
			evals, committed := planHits.Value()+planMisses.Value(), applies.Value()
			if committed > 0 {
				b.ReportMetric(float64(evals)/float64(committed), "evals/apply")
			}
			if evals != committed {
				b.Errorf("%d evaluations for %d committed applies, want one each", evals, committed)
			}
		})
	}
}
