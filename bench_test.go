package verlog

// One testing.B benchmark per experiment of EXPERIMENTS.md (E1-E12). The
// cmd/verlog-bench binary prints the corresponding tables with correctness
// checks; these benches measure the same code paths under the Go bench
// harness. Sub-benchmarks carry the sweep parameter.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"verlog/internal/baseline"
	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/obs"
	"verlog/internal/repository"
	"verlog/internal/strata"
	"verlog/internal/term"
	"verlog/internal/workload"
)

func mustParseProgram(b *testing.B, src string) *Program {
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
			for i := 0; i < b.N; i++ {
				apply(b, ob, p)
			}
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
// fires, nothing changes. "apply" is what every server apply runs, without
// a trace; "replay" adds the trace, which is what history and explain pay,
// once per state they are asked about (Repository.Replay).
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
		{"apply", []Option{core.WithPlans(plans)}, 0},
		{"replay", []Option{core.WithPlans(plans), WithTrace()}, spec.AncestorPairs()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := apply(b, head, p, c.opts...)
				if res.Fired != spec.AncestorPairs() || len(res.Trace) != c.trace || len(res.Changes) != 0 {
					b.Fatalf("fired %d, trace %d, changes %d; want %d, %d, 0",
						res.Fired, len(res.Trace), len(res.Changes), spec.AncestorPairs(), c.trace)
				}
			}
		})
	}
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

// BenchmarkE8FrameOverhead — Section 3, footnote 4: copy cost vs the
// fraction of touched objects.
func BenchmarkE8FrameOverhead(b *testing.B) {
	ob := workload.TouchedSpec{Objects: 2000, Methods: 8}.ObjectBase().Freeze()
	for _, pct := range []int{1, 10, 50, 100} {
		p := mustParseProgram(b, workload.TouchProgram(pct))
		b.Run(fmt.Sprintf("touched=%d%%", pct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				apply(b, ob, p)
			}
		})
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

// BenchmarkE11VsDirect — overhead factor vs the hand-coded updater.
func BenchmarkE11VsDirect(b *testing.B) {
	p := mustParseProgram(b, workload.EnterpriseProgram)
	spec := workload.EnterpriseSpec{Employees: 1000, Seed: 99}
	emps := spec.Generate()
	ob := workload.EmployeesToBase(emps).Freeze()
	b.Run("verlog", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			apply(b, ob, p)
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			direct := baseline.FromWorkload(emps)
			baseline.DirectEnterprise(direct)
		}
	})
}

// BenchmarkE14Planner — ablation: static vs statistics join ordering. The
// static arm compiles its plans in source order and hands them to the run
// the way the repository hands over cached ones; both arms compile once per
// apply.
func BenchmarkE14Planner(b *testing.B) {
	p := mustParseProgram(b, workload.EnterpriseProgram)
	ob := workload.EnterpriseSpec{Employees: 2000, ManagerFraction: 0.05, Seed: 33}.ObjectBase().Freeze()
	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plans, err := eval.Compile(ob, p, true)
			if err != nil {
				b.Fatal(err)
			}
			apply(b, ob, p, core.WithPlans(plans))
		}
	})
	b.Run("statistics", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			apply(b, ob, p)
		}
	})
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
		bossQueries(b, head)
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
				fresh.ForEachVIDWith("", "boss", func(term.GVID) {}) // the VID index is not the literal index's cost
				b.StartTimer()
				if _, err := Query(fresh, "E.boss -> e7, E.sal -> S."); err != nil {
					b.Fatal(err)
				}
			}
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
	for i := 0; i < applies; i++ {
		if _, err := r.Apply(raise); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range r.Log() {
		facts += e.Added.Len() + e.Removed.Len()
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
	snapshot, _ := r.Initial() // held across Compact, so that only the entries go
	if err := r.Compact(); err != nil {
		b.Fatal(err)
	}
	without := liveHeap()
	runtime.KeepAlive(snapshot)
	b.ReportMetric(float64(journal)/float64(facts), "journal-B/fact")
	b.ReportMetric((float64(with)-float64(without))/applies, "resident-B/entry")
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
// an apply's work was thrown away and fails the benchmark.
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
