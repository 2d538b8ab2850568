package verlog

// Regression guard over the checked-in benchmark reference: the E1 and E2
// apply at n=10000 must stay within 2× of the ns/op recorded in
// BENCH_10.json. The 2× margin absorbs machine variance (the reference
// and CI hosts differ); a genuine interpreter-gap regression — losing the
// compiled plans, the literal indexes, or the arena — is an order of
// magnitude, not a factor. `make bench` regenerates the reference.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"verlog/internal/bench"
	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// guardRef reads the reference ns/op for a benchmark result name.
func guardRef(t *testing.T, rep *bench.GoBenchReport, name string) float64 {
	t.Helper()
	for _, r := range rep.Results {
		if r.Name == name {
			if v := r.Metrics["ns/op"]; v > 0 {
				return v
			}
		}
	}
	t.Fatalf("BENCH_10.json has no ns/op for %s", name)
	return 0
}

func TestBenchRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("regression guard times real applies; skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("race instrumentation slows applies several-fold; the guard's 2× margin only holds uninstrumented")
	}
	data, err := os.ReadFile("BENCH_10.json")
	if err != nil {
		t.Fatalf("read reference: %v (run `make bench` to regenerate)", err)
	}
	var rep bench.GoBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parse BENCH_10.json: %v", err)
	}

	cases := []struct {
		name    string
		program string
		seed    int64
	}{
		{"BenchmarkE1SalaryRaise/n=10000", workload.SalaryRaiseProgram, 42},
		{"BenchmarkE2Enterprise/n=10000", workload.EnterpriseProgram, 7},
	}
	for _, c := range cases {
		ref := guardRef(t, &rep, c.name)
		p, err := ParseProgram(c.program)
		if err != nil {
			t.Fatal(err)
		}
		ob := workload.EnterpriseSpec{Employees: 10000, Seed: c.seed}.ObjectBase().Freeze()
		// Best of three: the guard asks "can the engine still do this
		// fast", so one clean run beats an average polluted by GC or
		// scheduler noise.
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := Apply(ob, p); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		limit := time.Duration(2 * ref)
		t.Logf("%s: best %v, reference %v, limit %v", c.name, best, time.Duration(ref), limit)
		if best > limit {
			t.Errorf("%s regressed: best of 3 = %v exceeds 2× reference %v",
				c.name, best, time.Duration(ref))
		}
	}
}

// TestPointUpdateScalingGuard is the E21 guard (ROADMAP item 1): what a
// one-object update allocates through repository.Apply must not depend on
// the size of the base. It compares allocation counters of the same stream
// of applies on 10⁴ and on 10² employees, in one process — deterministic
// counts and an in-run ratio, nothing the host's mood can move. The stream
// is long enough for the larger head to outgrow its delta layer and
// flatten twice, so the one O(|base|) step left is averaged in.
func TestPointUpdateScalingGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("1280 journaled applies per base; skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	const applies = 1280
	measure := func(n int) (bytesPerOp, allocsPerOp float64) {
		r, progs := pointUpdateRepo(t, n, 64)
		defer r.Close()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < applies; i++ {
			if _, err := r.Apply(progs[(64+i)%len(progs)]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / applies, float64(m1.Mallocs-m0.Mallocs) / applies
	}
	smallB, smallA := measure(100)
	bigB, bigA := measure(10000)
	t.Logf("n=100:   %.0f B/op, %.0f allocs/op", smallB, smallA)
	t.Logf("n=10000: %.0f B/op, %.0f allocs/op (%.2fx, %.2fx)", bigB, bigA, bigB/smallB, bigA/smallA)
	if bigB > 2*smallB {
		t.Errorf("a point update allocates %.0f B on 10⁴ employees and %.0f B on 10²: %.2fx, want ≤ 2x", bigB, smallB, bigB/smallB)
	}
	if bigA > 2*smallA {
		t.Errorf("a point update makes %.0f allocations on 10⁴ employees and %.0f on 10²: %.2fx, want ≤ 2x", bigA, smallA, bigA/smallA)
	}
}

// bytesPerFired applies p to the frozen base ob five times and returns the
// bytes one apply allocates per fired update. A first, unmeasured apply
// builds what the head caches (the literal index).
func bytesPerFired(t *testing.T, ob *ObjectBase, p *Program, opts ...Option) float64 {
	t.Helper()
	run := func() int {
		res, err := Apply(ob, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fired
	}
	const applies = 5
	fired := run()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < applies; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / applies / float64(fired)
}

// TestClosureAllocGuard is the E24 guard (ROADMAP item 1): the apply the
// server makes on recursive_closure — the ancestors program on a frozen head
// that already holds the closure, cached plans, trace on — writes every
// fired update once, so its cost per fired update is small and does not
// grow with the genealogy. (It shrinks somewhat: ten generations fire eight
// updates per version, six fire four, and what a run pays per version is
// spread over them.) Counts and an in-run ratio only.
func TestClosureAllocGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	p, err := ParseProgram(workload.AncestorsProgram)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(generations int) float64 {
		open := workload.GenealogySpec{Generations: generations, Branching: 2}.ObjectBase()
		first, err := Apply(open, p)
		if err != nil {
			t.Fatal(err)
		}
		head := first.Final
		plans, err := eval.Compile(head, p, false)
		if err != nil {
			t.Fatal(err)
		}
		return bytesPerFired(t, head, p, core.WithPlans(plans), WithTrace())
	}
	small, big := measure(6), measure(10)
	t.Logf("generations=6: %.0f B per fired update; generations=10: %.0f B (%.2fx)", small, big, big/small)
	for _, b := range []float64{small, big} {
		if b > 1500 {
			t.Errorf("a re-apply on a closed head allocates %.0f B per fired update, want ≤ 1500", b)
		}
	}
	if big > 1.3*small {
		t.Errorf("bytes per fired update grow %.2fx from 6 to 10 generations, want ≤ 1.3x", big/small)
	}
}

// TestAccumulatorScalingGuard: one version that accumulates k facts over k
// iterations — the reachability of a chain of k nodes collected on a single
// object — is extended in place, so an iteration costs what it adds. An
// engine that re-copies the accumulated state every iteration pays O(k) per
// fired update and fails this by a wide margin (3.7x, measured).
func TestAccumulatorScalingGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	p, err := ParseProgram(`
seed: ins[acc].reach -> Y <- acc.start -> X, X.next -> Y.
step: ins[acc].reach -> Y <- ins(acc).reach -> X, X.next -> Y.
`)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(k int) float64 {
		ob := NewObjectBase()
		node := func(i int) OID { return Sym(fmt.Sprintf("n%d", i)) }
		ob.Insert(term.NewFact(term.GVID{Object: Sym("acc")}, "start", node(0)))
		ob.EnsureObject(Sym("acc"))
		for i := 0; i < k; i++ {
			ob.Insert(term.NewFact(term.GVID{Object: node(i)}, "next", node(i+1)))
			ob.EnsureObject(node(i))
		}
		return bytesPerFired(t, ob.Freeze(), p)
	}
	small, big := measure(500), measure(2000)
	t.Logf("k=500: %.0f B per fired update; k=2000: %.0f B (%.2fx)", small, big, big/small)
	if big > 1.5*small {
		t.Errorf("an accumulator of 2000 facts costs %.0f B per fired update and one of 500 costs %.0f B: %.2fx, want ≤ 1.5x", big, small, big/small)
	}
}
