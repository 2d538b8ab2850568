package analysis

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"time"

	"verlog/internal/parser"
	"verlog/internal/workload"
)

// BenchmarkAnalyze measures full-pipeline analysis on the workload
// generator's layered programs (the stratification stress shape: long
// dependency chains under conditions (a) and (b)).
func BenchmarkAnalyze(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		src := workload.LayeredProgram(n, 4)
		p, err := parser.Program(src, "layered.vlg")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("layered-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ds := Program(p, Options{}); HasErrors(ds) {
					b.Fatalf("unexpected errors: %v", ds)
				}
			}
		})
	}
	src := workload.ChainProgram(8)
	p, err := parser.Program(src, "chain.vlg")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("chain-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ds := Program(p, Options{}); HasErrors(ds) {
				b.Fatalf("unexpected errors: %v", ds)
			}
		}
	})

	b.Run("source-enterprise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ds, _ := Source(workload.EnterpriseProgram, "e.vlg", Options{}); len(ds) != 0 {
				b.Fatalf("unexpected diagnostics: %v", ds)
			}
		}
	})
}

// BenchmarkAnalyzeDeep measures the full deep pipeline — structural
// passes, class/sort inference, boundedness and the cost model — on the
// E6 stratification-stress shape (LayeredProgram(n, 4)) and on the
// paper's enterprise program with its base.
func BenchmarkAnalyzeDeep(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		src := workload.LayeredProgram(n, 4)
		p, err := parser.Program(src, "layered.vlg")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("layered-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds, facts := Deep(p, Options{})
				if HasErrors(ds) || facts == nil {
					b.Fatalf("unexpected result: %v", ds)
				}
			}
		})
	}

	base := workload.EnterpriseSpec{Employees: 200}.ObjectBase()
	p, err := parser.Program(workload.EnterpriseProgram, "e.vlg")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("enterprise-with-base", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ds, facts := Deep(p, Options{Base: base})
			if HasErrors(ds) || facts == nil {
				b.Fatalf("unexpected result: %v", ds)
			}
		}
	})
}

// TestDeepAnalysisBudget guards the deep tier's running time on the
// 1024-rule E6 workload: the whole pipeline (including stratification,
// which the path-bucketed head index keeps O(rules·deps) instead of
// all-pairs) must take under 250ms. The time is the process's CPU time
// with the collector off (cpuTime), which the other test binaries of `go
// test ./...` do not add to as they do to the wall clock; best of three,
// so a scheduler hiccup cannot flake the gate; skipped under -race and
// -short.
func TestDeepAnalysisBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates the running time; the budget is for the plain build")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const budget = 250 * time.Millisecond
	p, err := parser.Program(workload.LayeredProgram(1024, 4), "layered.vlg")
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		start := cpuTime()
		ds, facts := Deep(p, Options{})
		if d := cpuTime() - start; d < best {
			best = d
		}
		if HasErrors(ds) || facts == nil || len(facts.Rules) != len(p.Rules) {
			t.Fatalf("deep analysis of the layered workload broke: %d diagnostics", len(ds))
		}
	}
	t.Logf("deep analysis of 1024 rules: %v of CPU (best of 3)", best)
	if best > budget {
		t.Errorf("deep analysis of 1024 rules took %v of CPU (best of 3), budget %v", best, budget)
	}
}

// cpuTime is the CPU time the process has used, user and system. Unlike the
// wall clock it stands still while the process waits for a CPU; with the
// collector off, and no goroutine of the analysis's own, a run's CPU time
// is its own work.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
