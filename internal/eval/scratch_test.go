package eval

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/spec"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// The tests of the working memory an evaluation leaves to the next one
// (scratch, parked): that nothing a run returned points into it, that a
// refusal leaves it as usable as a result does, that what it retains follows
// the last run, that collections between runs change nothing an apply
// allocates, that it pins nothing of a finished run, and that runs beside
// each other never share one.

// parkedScratch returns the scratch in the slot, leaving it there.
func parkedScratch() *scratch { return parked.Load() }

// collectorOff keeps the collector from running until the test ends, so that
// the scratch one run parks is the one the next run takes, every time.
func collectorOff(t *testing.T) {
	percent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(percent) })
}

// allZero reports whether every element of s up to its capacity is zero.
func allZero[T comparable](s []T) bool {
	var zero T
	for _, v := range s[:cap(s)] {
		if v != zero {
			return false
		}
	}
	return true
}

// slabEmpty checks that a slab has handed nothing out and that every value
// of every chunk it holds is zero.
func slabEmpty[T comparable](name string, s *slab[T]) error {
	if s.n != 0 || s.cur != 0 {
		return fmt.Errorf("%s counts %d values handed out, fills chunk %d", name, s.n, s.cur)
	}
	for k, c := range s.chunks {
		if len(c) != 0 || !allZero(c) {
			return fmt.Errorf("%s: chunk %d is %d long or holds something", name, k, len(c))
		}
	}
	return nil
}

// checkEmpty is the contract of scratch.empty, read off the storage: nothing
// is handed out, every map and slice is empty, and no backing array — up to
// its capacity — holds anything of the run that used it.
func (sc *scratch) checkEmpty() error {
	errs := []error{
		slabEmpty("ups", &sc.ups), slabEmpty("targets", &sc.targets), slabEmpty("touchedRecs", &sc.touchedRecs),
	}
	if len(sc.objs) != 0 || len(sc.spill) != 0 {
		errs = append(errs, fmt.Errorf("objs holds %d entries, spill %d", len(sc.objs), len(sc.spill)))
	}
	if l := sc.layer; len(l.Versions) != 0 || len(l.Overrides) != 0 || len(l.Index) != 0 {
		errs = append(errs, fmt.Errorf("the overlay's own layer holds %d versions, %d override counts, %d index entries", len(l.Versions), len(l.Overrides), len(l.Index)))
	}
	for name, ok := range map[string]bool{
		"methods": len(sc.methods) == 0 && allZero(sc.methods),
		"keys":    len(sc.keys) == 0 && allZero(sc.keys),
		"gone":    len(sc.gone) == 0 && allZero(sc.gone),
		"dirty":   len(sc.dirty) == 0 && allZero(sc.dirty),
		"tasks":   len(sc.tasks) == 0 && allZero(sc.tasks),
		"changes": len(sc.changes) == 0 && allZero(sc.changes),
		"slots":   len(sc.layer.Slots) == 0 && allZero(sc.layer.Slots),
		"buckets": sc.bucketsUsed == 0 && allZero(sc.buckets[len(sc.buckets):]),
	} {
		if !ok {
			errs = append(errs, fmt.Errorf("%s is not empty, or its backing array still holds something", name))
		}
	}
	for i, b := range sc.buckets {
		if b.method != "" || b.room != 0 || b.wholeRoom != 0 || len(b.facts) != 0 || len(b.whole) != 0 || !allZero(b.facts) || !allZero(b.whole) {
			errs = append(errs, fmt.Errorf("bucket %d is not empty, or its storage still holds something", i))
		}
	}
	return errors.Join(errs...)
}

// renderResult flattens everything a caller can read off a result but the
// clock: the trace, the changes, the per-rule counts, result(P) and ob'.
func renderResult(res *Result) string {
	var b strings.Builder
	b.WriteString(renderRun(res))
	// RuleStats lists the rules hottest first: by name here, without the time.
	stats := append([]RuleStat(nil), res.RuleStats...)
	for i := range stats {
		stats[i].TimeUS = 0
	}
	slices.SortFunc(stats, func(a, b RuleStat) int {
		return cmp.Or(strings.Compare(a.Rule, b.Rule), cmp.Compare(a.Stratum, b.Stratum), cmp.Compare(a.Fired, b.Fired))
	})
	fmt.Fprintf(&b, "rules %+v\nplan %s strata %v\n", stats, res.Plan, res.Assignment.Strata)
	b.WriteString(parser.FormatFacts(res.Result, true))
	return b.String()
}

// TestResultOwesNothingToTheScratch: every case of the corpus the engine
// accepts is run, traced, through one scratch — the collector is off, so each
// run takes what the one before it parked — and its Result is kept. Once the
// whole corpus has been through, every kept Result still renders, byte for
// byte, as it did when its run returned, and still agrees with the spec
// evaluator's: a trace event, a change or a state that lived in the scratch
// would have been written over by the runs after it.
func TestResultOwesNothingToTheScratch(t *testing.T) {
	collectorOff(t)
	type kept struct {
		name     string
		res      *Result
		rendered string
		want     *spec.Outcome
	}
	var all []kept
	var slot *scratch
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			ob, p := c.parse(t)
			ob.Freeze()
			res, err, want, diff := engineAndSpec(ob, p, Options{})
			if diff != nil {
				t.Error(diff)
			}
			sc := parkedScratch()
			if sc == nil {
				t.Fatal("the run parked no scratch")
			}
			if slot != nil && sc != slot {
				t.Fatal("the run did not take the scratch the run before it parked")
			}
			slot = sc
			if err := sc.checkEmpty(); err != nil {
				t.Fatalf("the parked scratch: %v", err)
			}
			if err != nil || diff != nil {
				return // a refusal: the scratch went through it all the same
			}
			if err := agreesWith(res, want); err != nil {
				t.Error(err)
			}
			all = append(all, kept{c.name, res, renderResult(res), want})
		})
	}
	if len(all) < 30 {
		t.Fatalf("only %d results kept", len(all))
	}
	for _, k := range all {
		if got := renderResult(k.res); got != k.rendered {
			t.Errorf("%s: the result changed after its run returned:\n%s\n--- was ---\n%s", k.name, got, k.rendered)
		}
		if err := agreesWith(k.res, k.want); err != nil {
			t.Errorf("%s, after the corpus: %v", k.name, err)
		}
	}
}

// TestDroppedResultOwesNothingToTheScratch: the corpus again, through the
// commit path (Options.DropResult), where the maps of result(P)'s own layer
// are the scratch's as well and the runs after each one clear them and fill
// them anew. Changes is the scratch's too: the run lends it, holding the
// scratch unparked, and it must list what the run that keeps result(P)
// lists; Release parks the scratch with the list cleared and takes Changes
// back. Every kept Final and Fired renders at the end as it did when its
// run returned — ob' holds the overlay's states by pointer, never its maps —
// and as the run that keeps result(P) renders it. No such run returns a
// result(P).
func TestDroppedResultOwesNothingToTheScratch(t *testing.T) {
	collectorOff(t)
	type kept struct {
		name     string
		ob       *objectbase.Base
		p        *term.Program
		res      *Result
		rendered string // with the changes it lent
		released string // after Release, without them
	}
	var all []kept
	var slot *scratch
	lent := false   // some run left the maps of its own layer in the scratch
	reused := false // some run wrote its changes into a list a run before it left
	opts := Options{DropResult: true, MaxIterations: 200}
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			ob, p := c.parse(t)
			ob.Freeze()
			var left []objectbase.Change // the list the run before this one left
			if prev := parkedScratch(); prev != nil {
				left = prev.changes[:cap(prev.changes)]
			}
			res, err := Run(ob, p, opts)
			var rendered, released string
			if err == nil {
				if parkedScratch() != nil || res.lent == nil {
					t.Fatal("the run parked the scratch its result lends Changes from")
				}
				if res.Result != nil {
					t.Fatal("a run that drops result(P) returned one")
				}
				reused = reused || len(res.Changes) > 0 && len(left) > 0 && &res.Changes[0] == &left[0]
				rendered = renderRun(res)
				res.Release()
				if res.Changes != nil || res.lent != nil {
					t.Fatal("Release left the result its changes")
				}
				res.Release() // a second Release does nothing
				released = renderRun(res)
			}
			sc := parkedScratch()
			if sc == nil {
				t.Fatal("the run parked no scratch")
			}
			if slot != nil && sc != slot {
				t.Fatal("the run did not take the scratch the run before it parked")
			}
			slot = sc
			lent = lent || sc.layer.Versions != nil
			if err := sc.checkEmpty(); err != nil {
				t.Fatalf("the parked scratch: %v", err)
			}
			if err != nil {
				return
			}
			all = append(all, kept{c.name, ob, p, res, rendered, released})
		})
	}
	if len(all) < 30 {
		t.Fatalf("only %d results kept", len(all))
	}
	if !lent {
		t.Fatal("no run left the maps of its own layer in the scratch")
	}
	if !reused {
		t.Fatal("no run wrote its changes into the list a run before it left")
	}
	for _, k := range all {
		if got := renderRun(k.res); got != k.released {
			t.Errorf("%s: the result changed after its run returned:\n%s\n--- was ---\n%s", k.name, got, k.released)
		}
		kept, err := Run(k.ob, k.p, Options{MaxIterations: opts.MaxIterations})
		if err != nil {
			t.Errorf("%s: the run that keeps result(P) fails: %v", k.name, err)
		} else if want := renderRun(kept); want != k.rendered {
			t.Errorf("%s: dropping result(P) changed the result:\n%s\n--- keeping it ---\n%s", k.name, k.rendered, want)
		}
	}
}

// TestRefusalsLeaveAUsableScratch alternates programs the engine refuses —
// each at another point of a run: compiling, in the middle of a stratum, at
// the iteration bound, locating a target — with one it accepts, all through
// one scratch. The scratch a refusal parks is as empty as any, the run after
// it agrees with the spec, and the refusal's error says after that run what
// it said before: an error carries values, not pointers into the log.
func TestRefusalsLeaveAUsableScratch(t *testing.T) {
	collectorOff(t)
	good := mustBase(t, `
e1.isa -> empl / sal -> 100 / boss -> e2.
e2.isa -> empl / sal -> 200 / boss -> e3.
e3.isa -> empl / sal -> 300.
`).Freeze()
	goodProg := mustProgram(t, `
raise: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, S2 = S + 10.
chain: ins[mod(E)].above -> B <- E.boss -> B.
chain2: ins[mod(E)].above -> C <- ins(mod(E)).above -> B, B.boss -> C.
`)
	newObjBase, newObjProg := goldenCase(t, "38-inserts-on-an-unknown-object.txt")
	var lin *LinearityError
	var lim *IterationLimitError
	var nobj *NewObjectError
	var ce *CompileError
	for _, c := range []struct {
		name, base, prog string
		opts             Options
		as               any
	}{
		{"linearity, mid-stratum", `o.m -> a / n -> b. p.isa -> t. q.isa -> t.`, `
fill: ins[X].seen -> yes <- X.isa -> t.
r1: del[o].m -> a <- o.m -> a.
r2: mod[o].n -> (b, c) <- o.n -> b.`, Options{}, &lin},
		{"iteration limit", `n0.next -> n1. n1.next -> n2. n2.next -> n3. n3.next -> n4. acc.start -> n0.`, `
seed: ins[acc].reach -> Y <- acc.start -> X, X.next -> Y.
step: ins[acc].reach -> Y <- ins(acc).reach -> X, X.next -> Y.`, Options{MaxIterations: 2}, &lim},
		{"new object forbidden", newObjBase, newObjProg, Options{ForbidNewObjects: true}, &nobj},
		{"unsafe rule", `o.m -> a.`, `r: ins[o].m -> X <- o.m -> a.`, Options{}, &ce},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(mustBase(t, c.base), mustProgram(t, c.prog), c.opts)
			if !errors.As(err, c.as) {
				t.Fatalf("err = %v, want a %T", err, c.as)
			}
			said := err.Error()
			if _, isCompile := c.as.(**CompileError); !isCompile {
				// A run that got as far as an engine parked its scratch.
				sc := parkedScratch()
				if sc == nil {
					t.Fatal("the refused run parked no scratch")
				}
				if err := sc.checkEmpty(); err != nil {
					t.Fatalf("the scratch the refused run parked: %v", err)
				}
			}
			res, rerr := runsLikeSpec(good, goodProg, Options{})
			if rerr != nil {
				t.Fatalf("the run after the refusal: %v", rerr)
			}
			if res.Fired != 6 {
				t.Fatalf("the run after the refusal fired %d updates, want 6", res.Fired)
			}
			if got := err.Error(); got != said {
				t.Fatalf("the refusal reads %q after the next run, %q before it", got, said)
			}
		})
	}
}

// accumulator returns the program of the accumulator row of TestCostLaws
// and a base for it: the reachability of a chain of k nodes collected on one
// object, k updates on one target in k iterations.
func accumulator(t *testing.T, k int) (*objectbase.Base, *term.Program) {
	t.Helper()
	ob := objectbase.New()
	node := func(i int) term.OID { return term.Sym(fmt.Sprintf("n%d", i)) }
	acc := term.Sym("acc")
	ob.Insert(term.NewFact(term.GVID{Object: acc}, "start", node(0)))
	ob.EnsureObject(acc)
	for i := 0; i < k; i++ {
		ob.Insert(term.NewFact(term.GVID{Object: node(i)}, "next", node(i+1)))
		ob.EnsureObject(node(i))
	}
	return ob.Freeze(), mustProgram(t, `
seed: ins[acc].reach -> Y <- acc.start -> X, X.next -> Y.
step: ins[acc].reach -> Y <- ins(acc).reach -> X, X.next -> Y.
`)
}

// pointUpdate returns a one-employee base and a raise for that employee: one
// modify on one target of one object.
func pointUpdate(t *testing.T) (*objectbase.Base, *term.Program) {
	t.Helper()
	return mustBase(t, `e1.isa -> empl / sal -> 100.`).Freeze(),
		mustProgram(t, `raise: mod[e1].sal -> (S, S2) <- e1.sal -> S, S2 = S + 10.`)
}

// TestScratchFollowsTheLastRun: what a parked scratch retains is what the
// run that parked it needed, not the most the process has seen. After an
// accumulator of twenty thousand updates on one target (a log of forty-seven
// chunks, a spill map of twenty thousand keys) and after a run that touches
// two hundred objects, one point update leaves the slabs with the chunk it
// reached, both maps to be made anew and every slice small.
func TestScratchFollowsTheLastRun(t *testing.T) {
	collectorOff(t)
	const k = 20000
	ob, p := accumulator(t, k)
	if res := mustRun(t, ob, p, Options{}); res.Fired != k {
		t.Fatalf("the accumulator fired %d updates, want %d", res.Fired, k)
	}
	sc := parkedScratch()
	if err := sc.checkEmpty(); err != nil {
		t.Fatal(err)
	}
	if want := slabSmall + (k-slabHead+slabChunk-1)/slabChunk; len(sc.ups.chunks) != want || sc.spillMost != k || sc.spill == nil {
		t.Fatalf("after %d updates on one target: %d log chunks (want %d), the spill map held %d (want %d)", k, len(sc.ups.chunks), want, sc.spillMost, k)
	}
	items := workload.Items(200)
	mustRun(t, items, mustProgram(t, workload.ChainProgram(1)), Options{})
	if sc != parkedScratch() || sc.objsMost < 200 || sc.objs == nil {
		t.Fatalf("after a run on 200 items the table of touched objects held %d", sc.objsMost)
	}
	// The spill map sat that run out: it is dropped already.
	if sc.spill != nil || sc.spillMost != 0 {
		t.Fatalf("a run that spilled nothing keeps the spill map of one that held %d", sc.spillMost)
	}

	pob, pp := pointUpdate(t)
	if res := mustRun(t, pob, pp, Options{}); res.Fired != 1 || len(res.Changes) != 1 {
		t.Fatalf("the point update fired %d updates, changed %d objects", res.Fired, len(res.Changes))
	}
	if sc != parkedScratch() {
		t.Fatal("the point update did not park the scratch it took")
	}
	if err := sc.checkEmpty(); err != nil {
		t.Fatal(err)
	}
	for name, chunks := range map[string]int{"ups": len(sc.ups.chunks), "targets": len(sc.targets.chunks), "touchedRecs": len(sc.touchedRecs.chunks)} {
		if chunks != 1 {
			t.Errorf("after a point update %s keeps %d chunks, want the one of two entries it reached", name, chunks)
		}
	}
	if sc.objs != nil || sc.objsMost != 0 || sc.spill != nil {
		t.Errorf("after a point update the scratch keeps a map that held %d objects (spill: %v), want both to be made anew", sc.objsMost, sc.spill != nil)
	}
	if len(sc.buckets) != 0 {
		t.Errorf("after a program without a delta seed the scratch keeps %d buckets", len(sc.buckets))
	}
	// The point update used one entry of each slice: a backing array kept for
	// it holds at most eight.
	for name, c := range map[string]int{
		"methods": cap(sc.methods), "gone": cap(sc.gone), "dirty": cap(sc.dirty), "tasks": cap(sc.tasks),
	} {
		if c > 8 {
			t.Errorf("after a point update %s keeps room for %d entries, want at most 8", name, c)
		}
	}
	// And the other way round: the run after a small one finds what it
	// needs, bought as it goes.
	if res := mustRun(t, ob, p, Options{}); res.Fired != k {
		t.Fatalf("the accumulator, after the point update, fired %d updates, want %d", res.Fired, k)
	}
}

// TestEmptiedMaps pins the one rule of map retention: a map is kept, cleared,
// while its run filled it to an eighth or more of the most it has held, and
// dropped — with the record of that most — below.
func TestEmptiedMaps(t *testing.T) {
	fill := func(m map[int]int, n int) map[int]int {
		if m == nil {
			m = map[int]int{}
		}
		for i := 0; i < n; i++ {
			m[i] = i
		}
		return m
	}
	most := 0
	m := emptied(fill(nil, 800), &most)
	if m == nil || len(m) != 0 || most != 800 {
		t.Fatalf("after 800 entries: %d left, most %d", len(m), most)
	}
	id := reflect.ValueOf(m).Pointer()
	m = emptied(fill(m, 100), &most) // an eighth: kept
	if m == nil || reflect.ValueOf(m).Pointer() != id || len(m) != 0 || most != 800 {
		t.Fatalf("after 100 of 800 entries: kept %v, %d left, most %d", m != nil, len(m), most)
	}
	m = emptied(fill(m, 99), &most) // less: dropped
	if m != nil || most != 0 {
		t.Fatalf("after 99 of 800 entries: kept %v, most %d", m != nil, most)
	}
	if m = emptied(m, &most); m != nil || most != 0 {
		t.Fatalf("a map that was never made: %v, most %d", m, most)
	}
	m = emptied(fill(nil, 3), &most)
	if m == nil || most != 3 {
		t.Fatalf("a new map of 3 entries: kept %v, most %d", m != nil, most)
	}
}

// collect runs the collector twice: once to find what is unreachable, once
// more for what the first cycle's cleanups released.
func collect() {
	runtime.GC()
	runtime.GC()
}

// closedClosureApply returns an apply on the closed genealogy of
// recursive_closure that reports the bytes it allocated.
func closedClosureApply(t *testing.T) func() uint64 {
	p := mustProgram(t, workload.AncestorsProgram)
	first := mustRun(t, workload.GenealogySpec{Generations: 8, Branching: 2, Roots: 3}.ObjectBase().Freeze(), p, Options{})
	plans, err := Compile(first.Final, p, false)
	if err != nil {
		t.Fatal(err)
	}
	head, opts := first.Final, Options{Plans: plans}
	return func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		mustRun(t, head, p, opts)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
}

// TestCollectionsLeaveApplyBytesGuard: what an apply allocates does not
// depend on when the collector runs. On the closed genealogy of
// recursive_closure — a re-apply that changes nothing, where the working
// memory is nearly all an apply buys — applies with a collection before each
// allocate within 2 % of applies with the collector off (measured: 0 %; a
// slot the collector empties makes it 616 kB against 66 kB). Counts, in one
// run.
func TestCollectionsLeaveApplyBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	apply := closedClosureApply(t)
	collectorOff(t)
	apply() // the head's literal index
	apply()
	const applies = 5
	var quiet, collected uint64
	for i := 0; i < applies; i++ {
		quiet += apply()
	}
	for i := 0; i < applies; i++ {
		runtime.GC()
		collected += apply()
	}
	ratio := float64(collected) / float64(quiet)
	t.Logf("per apply: %d B with a collection before each, %d B without (%.3fx)", collected/applies, quiet/applies, ratio)
	if ratio > 1.02 || ratio < 0.98 {
		t.Errorf("an apply allocates %d B after a collection and %d B without one: %.3fx, want within 2 %% — does a collection take the working memory of a busy process?", collected/applies, quiet/applies, ratio)
	}
}

// TestScratchReuseGuard: an evaluation leaves its working memory — the update
// log, the targets, the table of touched objects, the delta buckets — to the
// next one. On the closed genealogy of recursive_closure, the third apply in
// a row must allocate at most a quarter of what the first apply after the
// slot was emptied does (measured: 0.10x; 1.0x when every run buys its own).
// The slot is emptied as at the start of a process; three applies follow,
// the collector off: counts.
func TestScratchReuseGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	apply := closedClosureApply(t)
	collectorOff(t)
	apply() // the head's literal index
	parked.Swap(nil)
	cold := apply()
	apply()
	warm := apply()
	t.Logf("the first apply after the slot was emptied allocates %d B, the third %d B (%.2fx)", cold, warm, float64(warm)/float64(cold))
	if 4*warm > cold {
		t.Errorf("the third apply in a row allocates %d B, the first after the slot was emptied %d B: %.2fx, want ≤ 0.25x — is the working memory of one evaluation reaching the next?", warm, cold, float64(warm)/float64(cold))
	}
}

// TestTrimmedSlices pins the one rule of slice retention: a slice is kept,
// cleared up to its capacity, while its run used an eighth or more of that
// capacity, and dropped below. What the run used reaches to its last element
// that is not zero.
func TestTrimmedSlices(t *testing.T) {
	s := make([]int, 0, 80)
	s = append(s, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	s = trimmed(s[:0]) // truncated by its run: a tenth was used, and it is cleared
	if s == nil || len(s) != 0 || cap(s) != 80 || !allZero(s) {
		t.Fatalf("after 10 of 80 used: kept %v, len %d, cap %d, zero %v", s != nil, len(s), cap(s), allZero(s))
	}
	if s = trimmed(append(s, 9)); s != nil {
		t.Fatalf("after 1 of 80 used: kept, cap %d", cap(s))
	}
	if s = trimmed(s); s != nil {
		t.Fatal("a slice that was never made came back made")
	}
	if s = trimmed([]int{0, 0, 7}); s == nil || !allZero(s) {
		t.Fatal("a slice used to its end, zeros first, was not kept cleared")
	}
}

// TestParkedScratchPinsNoState: a finished run's states are the collector's
// as soon as its Result is dropped, although the scratch it used is parked —
// and, here, held on to, so that it cannot go with them. The state watched is
// one the run copied for a target (own): the target's record, the delta
// bucket it was entered into by reference and the table of touched objects
// all pointed at it during the run. Fails when a slab chunk, a bucket or the
// table is truncated without being cleared.
func TestParkedScratchPinsNoState(t *testing.T) {
	ob := workload.GenealogySpec{Generations: 4, Branching: 2}.ObjectBase().Freeze()
	p := mustProgram(t, workload.AncestorsProgram)
	released := make(chan struct{})
	sc := func() *scratch {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		res := mustRun(t, ob, p, Options{})
		var watched *objectbase.State
		for _, c := range res.Changes {
			if c.New != nil && c.New != c.Old {
				watched = c.New
				break
			}
		}
		if watched == nil {
			t.Fatal("the run changed no state")
		}
		runtime.AddCleanup(watched, func(ch chan struct{}) { close(ch) }, released)
		return parkedScratch()
	}()
	if sc == nil {
		t.Fatal("the run parked no scratch")
	}
	collect()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Error("a state of a finished run, its Result dropped, is still reachable: through the parked scratch?")
	}
	runtime.KeepAlive(sc)
}

// TestRunsBesideEachOtherShareNoScratch: eight goroutines evaluate different
// programs of the corpus a few hundred times each, one of them traced (as
// Repository.Replay runs beside applies), all against the one slot: whoever
// finds it empty starts from a new scratch, whoever parks last wins. Every
// result must equal the one its program gave alone. Under -race this is the
// check that a scratch is never in two runs' hands.
func TestRunsBesideEachOtherShareNoScratch(t *testing.T) {
	type job struct {
		name string
		ob   *objectbase.Base
		p    *term.Program
		opts Options
		want string
	}
	var jobs []job
	add := func(name string, ob *objectbase.Base, prog string, opts Options) {
		j := job{name: name, ob: ob.Freeze(), p: mustProgram(t, prog), opts: opts}
		j.want = renderResult(mustRun(t, j.ob, j.p, opts))
		jobs = append(jobs, j)
	}
	add("enterprise", workload.EnterpriseSpec{Employees: 30, Seed: 3}.ObjectBase(), workload.EnterpriseProgram, Options{})
	add("ancestors, traced", workload.GenealogySpec{Generations: 4, Branching: 2}.ObjectBase(), workload.AncestorsProgram, Options{Trace: true})
	add("ancestors", workload.GenealogySpec{Generations: 3, Branching: 2, Roots: 2}.ObjectBase(), workload.AncestorsProgram, Options{})
	add("chains", workload.Items(20), workload.ChainProgram(3), Options{})
	for _, name := range []string{"36-modifies-past-the-spill.txt", "37-delete-all-past-the-spill.txt", "38-inserts-on-an-unknown-object.txt"} {
		base, prog := goldenCase(t, name)
		add(name, mustBase(t, base), prog, Options{})
	}
	pob, _ := pointUpdate(t)
	add("point update", pob, `raise: mod[e1].sal -> (S, S2) <- e1.sal -> S, S2 = S + 10.`, Options{})
	if len(jobs) != 8 {
		t.Fatalf("%d jobs, want 8", len(jobs))
	}
	iterations := 300
	if testing.Short() {
		iterations = 30
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				res, err := Run(j.ob, j.p, j.opts)
				if err != nil {
					t.Errorf("%s, run %d: %v", j.name, i, err)
					return
				}
				if got := renderResult(res); got != j.want {
					t.Errorf("%s, run %d, differs from the run alone:\n%s\n--- alone ---\n%s", j.name, i, got, j.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
