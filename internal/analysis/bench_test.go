package analysis

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"time"

	"verlog/internal/parser"
	"verlog/internal/term"
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

// deepTimeExp bounds the exponent of the deep tier's CPU time in the number
// of rules (TestDeepAnalysisBudget).
const deepTimeExp = 1.3

// TestDeepAnalysisBudget holds the deep tier's running time to a law over
// sizes, as TestCostLaws does the engine's: on layered rules over ground
// objects (layeredRules) at 256, 512 and 1 024 rules, the CPU time of the
// whole pipeline grows as n^e, e fitted over the three sizes, with e ≤
// deepTimeExp. Each size's time is the best of five measurements of the
// process's CPU time with the collector off (cpuTime), which the other test
// binaries of `go test ./...` do not add to as they do to the wall clock,
// each over as many runs as make 16 384 rules, the sizes taken in turn. An exponent is a ratio of
// times of one run, so a host that is slow or loaded throughout moves it
// little, where an absolute budget (250 ms at 1 024 rules) failed under
// load; a pass that turns quadratic in the rules — all-pairs
// stratification instead of the path-bucketed head index, or a pairwise
// linearity check over every two rules — fits well above the bound.
// Skipped under -race and -short.
func TestDeepAnalysisBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates the running time; the law is for the plain build")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	sizes := []float64{256, 512, 1024}
	progs := make([]*term.Program, len(sizes))
	best := make([]float64, len(sizes))
	for i, n := range sizes {
		p, err := parser.Program(layeredRules(int(n)), "layered.vlg")
		if err != nil {
			t.Fatal(err)
		}
		progs[i], best[i] = p, math.Inf(1)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Five rounds over the three sizes, so that load on the host falls on
	// every size alike; each measurement runs 16 384 rules' worth (~0.1 s:
	// CPU time is counted in ticks).
	for range 5 {
		for i, p := range progs {
			reps := 16384 / len(p.Rules)
			start := cpuTime()
			for range reps {
				if ds, facts := Deep(p, Options{}); HasErrors(ds) || facts == nil || len(facts.Rules) != len(p.Rules) {
					t.Fatalf("deep analysis of the layered workload of %d rules broke: %d diagnostics", len(p.Rules), len(ds))
				}
			}
			best[i] = min(best[i], float64(cpuTime()-start)/float64(reps))
			runtime.GC() // with the collector off, each measurement's garbage goes before the next
		}
	}
	for i, n := range sizes {
		t.Logf("deep analysis of %.0f rules: %v of CPU (best of 5)", n, time.Duration(best[i]))
	}
	if e := fitExponent(sizes, best); e > deepTimeExp {
		t.Errorf("deep analysis CPU time grows as rules^%.2f over %v rules, want ≤ %.2f", e, sizes, deepTimeExp)
	} else {
		t.Logf("deep analysis CPU time grows as rules^%.2f (law: ≤ %.2f)", e, deepTimeExp)
	}
}

// layeredRules is LayeredProgram(n, 4) on ground objects: rule i inserts
// on a version chain of depth (i mod 4)+1 of object o(i/4), reading the
// depth below, so that a rule depends on the few rules of its object and
// the dependency edges grow as the rules do (on LayeredProgram's variable
// base every rule depends on every rule of the depths below it, of the
// order of n² edges, and the law would measure their count, not the
// passes).
func layeredRules(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		d, o := i%4+1, fmt.Sprintf("o%d", i/4)
		fmt.Fprintf(&b, "r%d: ins[%s%s%s].m%d -> a <- %s%s%s.m%d -> a.\n", i,
			strings.Repeat("ins(", d), o, strings.Repeat(")", d), i%7,
			strings.Repeat("ins(", d-1), o, strings.Repeat(")", d-1), (i+3)%7)
	}
	return b.String()
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
