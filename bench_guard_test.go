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
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"verlog/internal/bench"
	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
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
func closedGenealogy(t *testing.T, spec workload.GenealogySpec) (*ObjectBase, *Program, []Option) {
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
	const applies = 5
	for _, c := range cases {
		ob, p, opts := c.setup()
		run := func() {
			if _, err := Apply(ob, p, opts...); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		// As in the benchmark, whose reference rows come from the warm pass
		// (-benchtime 5x): a first apply builds what the frozen base caches
		// and leaves the evaluation's working memory in the slot, the
		// collection the benchmark runner makes before it counts finds it used
		// and leaves it there, and the five applies counted all reuse it. The
		// collector is off from the first apply on, so that no collection of
		// its own comes between and the count repeats.
		m0, m1 := func() (m0, m1 runtime.MemStats) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for i := 0; i < applies; i++ {
				run()
			}
			runtime.ReadMemStats(&m1)
			return m0, m1
		}()
		for _, m := range []struct {
			metric string
			got    float64
		}{
			{"B/op", float64(m1.TotalAlloc-m0.TotalAlloc) / applies},
			{"allocs/op", float64(m1.Mallocs-m0.Mallocs) / applies},
		} {
			ref := guardRef(t, &rep, c.name, m.metric)
			t.Logf("%s: %.0f %s, reference %.0f (%.2fx)", c.name, m.got, m.metric, ref, m.got/ref)
			if m.got > 1.15*ref {
				t.Errorf("%s regressed: %.0f %s exceeds 1.15× the reference %.0f", c.name, m.got, m.metric, ref)
			}
		}
	}
}

// TestPointUpdateScalingGuard is the E21 guard (ROADMAP item 1): what a
// one-object update allocates through repository.Apply, together with the
// first boss probe of the head it publishes, must not depend on the size of
// the base. It compares allocation counters of the same stream of applies
// on 10⁴ and on 10² employees, in one process — deterministic counts and an
// in-run ratio, nothing the host's mood can move. The stream is long enough
// for the larger head to outgrow its delta layer and flatten twice, so the
// one O(|base|) step left is averaged in; the probe reads a layer of up to
// 625 salary-changed versions there, and of up to 6 on 10² employees.
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
		probe := func() {
			head, err := r.Head()
			if err != nil {
				t.Fatal(err)
			}
			if head.Index().VIDsWithResult("", "boss", Sym("e0")).Len() == 0 {
				t.Fatal("the boss probe found no reports of e0")
			}
		}
		probe() // builds the root's boss partition, which new roots inherit
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < applies; i++ {
			if _, err := r.Apply(progs[(64+i)%len(progs)]); err != nil {
				t.Fatal(err)
			}
			probe()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / applies, float64(m1.Mallocs-m0.Mallocs) / applies
	}
	smallB, smallA := measure(100)
	bigB, bigA := measure(10000)
	t.Logf("n=100:   %.0f B/op, %.0f allocs/op", smallB, smallA)
	t.Logf("n=10000: %.0f B/op, %.0f allocs/op (%.2fx, %.2fx)", bigB, bigA, bigB/smallB, bigA/smallA)
	if bigB > 2*smallB {
		t.Errorf("a point update and a boss probe allocate %.0f B on 10⁴ employees and %.0f B on 10²: %.2fx, want ≤ 2x", bigB, smallB, bigB/smallB)
	}
	if bigA > 2*smallA {
		t.Errorf("a point update and a boss probe make %.0f allocations on 10⁴ employees and %.0f on 10²: %.2fx, want ≤ 2x", bigA, smallA, bigA/smallA)
	}
}

// bytesPerFired applies p to the frozen base ob five times and returns the
// bytes one apply allocates per fired update. A first, unmeasured apply
// builds what the head caches (the literal index) and leaves the evaluation's
// working memory in the slot for the five measured ones. The collector is off
// from before that apply to after the last: a collection between two applies
// leaves that memory where it is, but its own allocations would be counted.
// (What the first apply after an idle process let go of it costs is
// TestScratchReuseGuard's.)
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
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fired := run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < applies; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / applies / float64(fired)
}

// TestClosureAllocGuard is the E24 guard (ROADMAP item 1): the apply the
// server makes on recursive_closure — the ancestors program on a frozen head
// that already holds the closure, cached plans, no trace (the server builds
// one only when history or explain ask, by replaying the journal) — writes
// every fired update once, in 48 bytes (its method a number of the run's, its
// list link a position in the log) of a log the apply before it left behind,
// and copies none of the facts the versions it fires them on enter with (a
// version that appears is entered into the semi-naive delta by reference, and
// a scan matches its candidates as the walk hands them out), so its cost per
// fired update is small and does not grow with the genealogy. (It shrinks: ten
// generations fire eight updates per version, six fire four, and what a run
// pays per version — its slot in the overlay and in the overlay's version
// index — is spread over them.) Counts and an in-run ratio only.
func TestClosureAllocGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	measure := func(generations int) float64 {
		head, p, opts := closedGenealogy(t, workload.GenealogySpec{Generations: generations, Branching: 2})
		return bytesPerFired(t, head, p, opts...)
	}
	small, big := measure(6), measure(10)
	t.Logf("generations=6: %.0f B per fired update; generations=10: %.0f B (%.2fx)", small, big, big/small)
	for _, b := range []float64{small, big} {
		if b > 63 { // measured × 1.15: 55 B at six generations, 15 B at ten (257 and 118 when every apply bought its working memory anew)
			t.Errorf("a re-apply on a closed head allocates %.0f B per fired update, want ≤ 63", b)
		}
	}
	if big > 1.3*small {
		t.Errorf("bytes per fired update grow %.2fx from 6 to 10 generations, want ≤ 1.3x", big/small)
	}
}

// TestScratchReuseGuard: an evaluation leaves its working memory — the update
// log, the targets, the table of touched objects, the delta buckets — to the
// next one, and an idle process lets go of it. On the closed genealogy of
// recursive_closure, where that memory is nearly all an apply allocates, the
// third apply in a row must allocate at most a quarter of what the first
// apply after the slot was emptied does (measured: 0.11x; 1.0x when every run
// buys its own). The slot is emptied by collections with no apply between
// them, made until it is; then three applies, the collector off: counts.
func TestScratchReuseGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	head, p, opts := closedGenealogy(t, workload.GenealogySpec{Generations: 8, Branching: 2, Roots: 3})
	apply := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Apply(head, p, opts...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	apply() // the head's literal index
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The second sweep after the apply drops the scratch; a sweep runs after
	// a collection, on its own goroutine, so each collection is given time to
	// be swept before the next.
	for deadline := time.Now().Add(10 * time.Second); eval.ScratchHeld(); {
		if time.Now().After(deadline) {
			t.Fatal("ten seconds of collections with no apply between them left the evaluation's working memory in its slot")
		}
		runtime.GC()
		for wait := time.Now().Add(100 * time.Millisecond); eval.ScratchHeld() && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
	}
	cold := apply()
	apply()
	warm := apply()
	t.Logf("the first apply after the slot was emptied allocates %d B, the third %d B (%.2fx)", cold, warm, float64(warm)/float64(cold))
	if 4*warm > cold {
		t.Errorf("the third apply in a row allocates %d B, the first after the slot was emptied %d B: %.2fx, want ≤ 0.25x — is the working memory of one evaluation reaching the next?", warm, cold, float64(warm)/float64(cold))
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
// the head for the first twenty managers, and returns the rows the joins
// answered.
func bossQueries(tb testing.TB, head *ObjectBase) (rows int) {
	tb.Helper()
	for m := 0; m < 20; m++ {
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

// TestQueryAllocGuard is the E25 guard (ROADMAP item 3(a)): a read costs
// what it returns. The queries of the end-to-end workloads run on the
// compiled executor and probe the head's literal index, so on a warm head
// what they allocate follows their answers, not the base (a scan copies
// every boss carrier into a slice per query, 5x per row from 300 to 3 000
// employees). Counts and an in-run ratio. (That the head indexes only
// what was asked for is TestPartitionsOnDemandGuard in internal/objectbase.)
func TestQueryAllocGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	measure := func(n int) float64 {
		head := enterpriseHead(t, n)
		rows := bossQueries(t, head) // builds the boss partition
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		bossQueries(t, head)
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rows)
	}
	small, big := measure(300), measure(3000)
	t.Logf("n=300: %.0f B per answered row; n=3000: %.0f B (%.2fx)", small, big, big/small)
	if big > 1.5*small {
		t.Errorf("the workload's queries allocate %.0f B per row on 3 000 employees and %.0f B on 300: %.2fx, want ≤ 1.5x", big, small, big/small)
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
	root.ForEachVIDWith("", "sal", func(term.GVID) {}) // the root's own index is not the layer's
	measure := func(versions int) (bytes, mallocs uint64) {
		changes := make([]objectbase.Change, versions)
		for i := range changes {
			v := term.GVID{Object: Sym(fmt.Sprintf("e%d", i))}
			old := root.StateOf(v)
			ns := old.Clone()
			ns.Add(term.MethodKey{Method: "note"}, Sym("touched"))
			changes[i] = objectbase.Change{V: v, Old: old, New: ns}
		}
		head := root.Derive(changes)
		if head.Parent() != root {
			t.Fatalf("%d changes of 3000 versions did not leave a delta layer", versions)
		}
		seen := 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		head.ForEachVIDWith("", "sal", func(term.GVID) { seen++ })
		runtime.ReadMemStats(&m1)
		if seen != 3000 {
			t.Fatalf("the scan saw %d versions, want 3000", seen)
		}
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
	}
	oneB, oneA := measure(1)
	manyB, manyA := measure(100)
	t.Logf("first scan of a 1-version layer: %d B in %d allocations; of a 100-version layer: %d B in %d", oneB, oneA, manyB, manyA)
	if manyA > oneA+2 || manyB > oneB+128 || manyA > 8 {
		t.Errorf("the first scan of a fresh 100-version layer allocates %d B in %d allocations (1 version: %d B in %d), want O(1)", manyB, manyA, oneB, oneA)
	}
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
		head := root.Derive(changes)
		if head.Parent() != root {
			t.Fatalf("%d changes of 3000 versions did not leave a delta layer", versions)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		hits := head.Index().VIDsWithResult("", "boss", Sym("e7"))
		runtime.ReadMemStats(&m1)
		got, want := live(hits), live(head.Clone().Freeze().Index().VIDsWithResult("", "boss", Sym("e7")))
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%d-version layer: the boss probe reports %v, a flat rebuild %v", versions, got, want)
		}
		for i, c := range changes {
			if got := live(head.Index().VIDsWithResult("", "sal", sal(i))); !slices.Equal(got, []term.GVID{c.V}) {
				t.Errorf("%d-version layer: the probe of %s's new salary reports %v", versions, c.V, got)
			}
			c.Old.ForEachResult(term.MethodKey{Method: "sal"}, func(old term.OID) {
				if slices.Contains(live(head.Index().VIDsWithResult("", "sal", old)), c.V) {
					t.Errorf("%d-version layer: the probe of %s's old salary still reports it", versions, c.V)
				}
			})
		}
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
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
		head.ForEachVIDWith("", method, func(term.GVID) { scanned++ })
		reports = head.Index().VIDsWithResult("", "boss", Sym("e7")).Len()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, scanned, reports
	}
	for i := 0; i < 2; i++ { // warm: the second head's predecessor has been read
		bossQueries(t, apply(raise))
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
