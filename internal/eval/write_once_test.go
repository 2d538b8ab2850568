package eval

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// TestTraceOrderDeterministic: the canonical trace order must be total. A
// rule firing many updates on one version that differ only in their
// arguments is the case an order blind to arguments leaves to map order.
func TestTraceOrderDeterministic(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "n%d.isa -> node.\n", i)
	}
	p := mustProgram(t, `r: ins[hub].seen@X -> yes <- X.isa -> node.`)
	render := func() string {
		// A base of its own per run: the firing order follows the literal
		// index, which is built in map order once per frozen base.
		ob := mustBase(t, src.String())
		var b strings.Builder
		for _, ev := range mustRun(t, ob, p, Options{Trace: true}).Trace {
			b.WriteString(ev.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := render()
	if n := strings.Count(first, "\n"); n != 40 {
		t.Fatalf("trace has %d events, want 40:\n%s", n, first)
	}
	for i := 1; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d rendered another trace order:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}

// closedGenealogy returns a frozen head that already holds the ancestors
// closure, and the program.
func closedGenealogy(t *testing.T, spec workload.GenealogySpec) (*objectbase.Base, *term.Program) {
	t.Helper()
	p := mustProgram(t, workload.AncestorsProgram)
	return mustRun(t, spec.ObjectBase(), p, Options{}).Final, p
}

// TestReapplyOnClosedHeadCopiesNothing: every update of the ancestors
// program fires on a head that holds the closure, and none changes
// anything. The run must hand back the head it was given, every derived
// version must share its object's state, and the copy phase must decide
// "unchanged" without building a state to compare.
func TestReapplyOnClosedHeadCopiesNothing(t *testing.T) {
	spec := workload.GenealogySpec{Generations: 6, Branching: 2, Roots: 2}
	head, p := closedGenealogy(t, spec)
	res := mustRun(t, head, p, Options{Trace: true})
	if res.Fired != spec.AncestorPairs() {
		t.Fatalf("fired %d, want %d", res.Fired, spec.AncestorPairs())
	}
	if len(res.Changes) != 0 || res.Final != head {
		t.Fatalf("%d changes, same head: %v; want none and the input head", len(res.Changes), res.Final == head)
	}
	e := &engine{scratch: new(scratch), p0: head, base: res.Result}
	for _, v := range res.Result.Versions() {
		if v.IsObject() {
			continue
		}
		e.touch(v.Object).deepest = v.Path
		if res.Result.StateOf(v) != head.StateOf(term.GVID{Object: v.Object}) {
			t.Fatalf("%s has a state of its own although no update changed it", v)
		}
	}
	if len(e.objs) != spec.Persons()-spec.Roots {
		t.Fatalf("%d derived versions, want one per person with a parent (%d)", len(e.objs), spec.Persons()-spec.Roots)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if final, changes := e.finalize(); final != head || len(changes) != 0 {
			t.Fatalf("finalize: %d changes", len(changes))
		}
	})
	if allocs != 0 {
		t.Errorf("the copy phase allocates %.0f times to find nothing changed, want 0 (no CloneFinal)", allocs)
	}
}

// TestAppearingVersionsAreTheirOwnDelta drives a re-apply on a closed
// genealogy head iteration by iteration. Every target there appears sharing
// its object's state and no update changes it, so the semi-naive delta is
// those versions themselves: each bucket holds one whole version per person
// with a parent and never a copied fact, and the engine's one table of
// touched objects has one record per such person, found by every update
// fired on it.
func TestAppearingVersionsAreTheirOwnDelta(t *testing.T) {
	spec := workload.GenealogySpec{Generations: 6, Branching: 2, Roots: 2}
	head, p := closedGenealogy(t, spec)
	compiled, err := Compile(head, p, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxIterations: defaultMaxIterations}
	e := newEngine(head, p, compiled, opts, takeScratch())
	rules := make([]int, len(p.Rules))
	for i := range rules {
		rules[i] = i // the ancestors program is one stratum
	}
	s := e.newStratumRun(0, rules, nil)
	if len(s.buckets) == 0 {
		t.Fatal("the ancestors program has no delta seed")
	}
	derived := spec.Persons() - spec.Roots
	iters := 0
	for iters == 0 {
		if iters, err = s.iterate(); err != nil {
			t.Fatal(err)
		}
		for key, b := range s.buckets {
			// The length, not the capacity: a bucket whose storage an earlier
			// run filled has room, and "no fact was copied" is that none is in.
			if len(b.facts) != 0 {
				t.Fatalf("iteration %d: bucket %v holds %d copied facts, want none ever", s.iter, key, len(b.facts))
			}
			want := 0
			if s.iter == 1 {
				want = derived
			}
			if len(b.whole) != want {
				t.Fatalf("iteration %d: bucket %v holds %d whole versions, want %d", s.iter, key, len(b.whole), want)
			}
			for _, v := range b.whole {
				if v.st != head.StateOf(term.GVID{Object: v.object}) {
					t.Fatalf("iteration %d: ins(%s) entered bucket %v with a state of its own", s.iter, v.object, key)
				}
			}
		}
	}
	if iters != 2 || e.fired != spec.AncestorPairs() {
		t.Fatalf("%d iterations, %d fired; want 2 and %d", iters, e.fired, spec.AncestorPairs())
	}
	if len(e.objs) != derived {
		t.Fatalf("%d touched objects, want one per person with a parent (%d)", len(e.objs), derived)
	}
	fired := 0
	for o, rec := range e.objs {
		tu := rec.updates
		if rec.deepest != term.PathOf(term.Ins) || tu == nil || tu.older != nil || tu.obj != rec || tu.w != term.GV(o, term.Ins) {
			t.Fatalf("%s: deepest %q, targets %+v; want the one target ins(%s)", o, rec.deepest, tu, o)
		}
		fired += int(tu.n)
	}
	if fired != e.fired {
		t.Fatalf("the targets of the touched objects list %d updates, %d fired", fired, e.fired)
	}
}

// TestFixpointRecordSizes pins the sizes of what an evaluation keeps per
// fired update, per delta entry, per target and per touched object (DESIGN.md
// §4 quotes them). targetUpdates is 88 only with its int32s and bools laid
// out together after the pointers: every narrow field that sits between two
// pointers pads to a word, and putting the three positions where the three
// pointers were gives 96.
func TestFixpointRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"firedUpdate", unsafe.Sizeof(firedUpdate{}), 40},
		{"spillKey", unsafe.Sizeof(spillKey{}), 48},
		{"deltaFact", unsafe.Sizeof(deltaFact{}), 40},
		{"wholeVersion", unsafe.Sizeof(wholeVersion{}), 24},
		{"touched", unsafe.Sizeof(touched{}), 24},
		{"targetUpdates", unsafe.Sizeof(targetUpdates{}), 88},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	// The lists through the log link positions: nothing in a record points
	// at another.
	ft := reflect.TypeOf(firedUpdate{})
	for i := 0; i < ft.NumField(); i++ {
		if k := ft.Field(i).Type.Kind(); k == reflect.Pointer || k == reflect.UnsafePointer {
			t.Errorf("firedUpdate.%s is a pointer", ft.Field(i).Name)
		}
	}
}

// fillSlab takes n values from the slab and checks, as it grows and again at
// the end, that every one is zero when handed out, that at(i) is the pointer
// next handed out as its (i+1)-th, and that the geometry is the one at counts
// on: chunks of 2, 4, …, 256 and then 512. mark leaves something in every
// value, so that a reset which forgets to clear shows on the next fill.
func fillSlab[T comparable](t *testing.T, s *slab[T], n int, mark func(*T)) {
	t.Helper()
	var zero T
	handed := make([]*T, 0, n)
	for i := 0; i < n; i++ {
		v := s.next()
		if *v != zero {
			t.Fatalf("value %d was handed out holding %+v, want zero", i, *v)
		}
		mark(v)
		handed = append(handed, v)
		if s.n != i+1 {
			t.Fatalf("after %d values the slab counts %d", i+1, s.n)
		}
		// Checked as the slab grows, not only at the end: a position must be
		// good from the moment it is handed out.
		if got := s.at(i); got != handed[i] {
			t.Fatalf("at(%d) = %p right after next() = %p", i, got, handed[i])
		}
	}
	for i, want := range handed {
		if got := s.at(i); got != want {
			t.Fatalf("at(%d) = %p, next() handed out %p", i, got, want)
		}
	}
	for k, c := range s.chunks {
		if want := min(2<<k, slabChunk); cap(c) != want {
			t.Fatalf("chunk %d holds %d, want %d", k, cap(c), want)
		}
	}
}

// slabAddresses fills a slab past the doubling head and three full chunks,
// then resets it and fills it again short of its old end and past it: a
// slab that is used again must be indistinguishable, but for what it
// allocates, from a new one.
func slabAddresses[T comparable](t *testing.T, mark func(*T)) {
	t.Helper()
	const n = slabHead + 3*slabChunk + 7
	var s slab[T]
	fillSlab(t, &s, n, mark)
	full := len(s.chunks)
	if full != slabSmall+4 {
		t.Fatalf("%d values filled %d chunks, want the doubling head, three of %d and one begun", n, full, slabChunk)
	}
	first := s.at(0)
	for _, again := range []int{slabHead + slabChunk, 1, n + 2*slabChunk} {
		s.reset()
		if s.n != 0 || s.cur != 0 {
			t.Fatalf("a reset slab counts %d values, fills chunk %d", s.n, s.cur)
		}
		fillSlab(t, &s, again, mark)
		if s.at(0) != first {
			t.Fatalf("refilled to %d: the first value moved", again)
		}
	}
	// Short of the old end: the reset after lets the chunks not reached go.
	s.reset()
	fillSlab(t, &s, slabHead+1, mark)
	s.reset()
	if len(s.chunks) != slabSmall+1 || cap(s.chunks[0]) != 2 {
		t.Fatalf("a slab that last handed out %d values keeps %d chunks, want %d", slabHead+1, len(s.chunks), slabSmall+1)
	}
	for _, c := range s.chunks[:cap(s.chunks)][len(s.chunks):] {
		if c != nil {
			t.Fatal("a chunk the slab let go is still in the backing array")
		}
	}
	// An exactly full chunk is reached; the one after it is not.
	fillSlab(t, &s, 2, mark)
	s.reset()
	if len(s.chunks) != 1 {
		t.Fatalf("a slab that last handed out 2 values keeps %d chunks, want 1", len(s.chunks))
	}
	s.reset()
	if len(s.chunks) != 0 {
		t.Fatalf("a slab that handed out nothing keeps %d chunks", len(s.chunks))
	}
}

// TestSlabAtFindsWhatNextHandedOut covers the 2 → 512 doubling and three
// full-size chunks, new and reset, for the two records that are addressed by
// position or could be.
func TestSlabAtFindsWhatNextHandedOut(t *testing.T) {
	if slabHead != 2<<slabSmall-2 || slabChunk != 2<<slabSmall {
		t.Fatalf("slab constants disagree: head %d, small %d, chunk %d", slabHead, slabSmall, slabChunk)
	}
	t.Run("firedUpdate", func(t *testing.T) {
		slabAddresses(t, func(f *firedUpdate) { *f = firedUpdate{r: term.Sym("r"), next: 7, rule: 1} })
	})
	t.Run("targetUpdates", func(t *testing.T) {
		slabAddresses(t, func(tu *targetUpdates) { *tu = targetUpdates{st: objectbase.NewState(), older: tu, n: 3} })
	})
	// A slab still starts at two entries: a run that fires one update pays
	// for two slots.
	var s slab[firedUpdate]
	s.next()
	if len(s.chunks) != 1 || cap(s.chunks[0]) != 2 {
		t.Fatalf("the first chunk holds %d", cap(s.chunks[0]))
	}
}

// longestList returns the most updates a run logged on one target of the
// given kind within one stratum.
func longestList(res *Result, kind term.UpdateKind) int {
	type target struct {
		stratum int
		w       term.GVID
	}
	n, longest := map[target]int{}, 0
	for _, ev := range res.Trace {
		if ev.Update.Kind == kind {
			k := target{ev.Stratum, ev.Update.Target()}
			n[k]++
			longest = max(longest, n[k])
		}
	}
	return longest
}

// TestLongListsAreReached keeps the inputs that are there for the two arms
// of the update log only a list past dedupSpill reaches — a modify's new
// result in the slot after its entry, method numbers taken from the facts a
// del[v].* deletes — long enough to reach them: the two golden cases and the
// two fuzz seeds, which is where `make fuzz` and CI start from.
func TestLongListsAreReached(t *testing.T) {
	modBase, modProg := goldenCase(t, "36-modifies-past-the-spill.txt")
	delBase, delProg := goldenCase(t, "37-delete-all-past-the-spill.txt")
	n := len(fuzzSeeds)
	for _, c := range []struct {
		name, base, prog string
		kind             term.UpdateKind
		iterations       int // the least the longest stratum takes
	}{
		{"golden 36", modBase, modProg, term.Mod, 3},
		{"golden 37", delBase, delProg, term.Del, 2},
		{"fuzz seed, modifies", fuzzBase, fuzzSeeds[n-2], term.Mod, 3},
		{"fuzz seed, delete-all", fuzzBase, fuzzSeeds[n-1], term.Del, 2},
	} {
		res, err := runsLikeSpec(mustBase(t, c.base), mustProgram(t, c.prog), Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := longestList(res, c.kind); got <= dedupSpill {
			t.Errorf("%s: the longest %s list holds %d updates, want more than dedupSpill = %d", c.name, c.kind, got, dedupSpill)
		}
		if got := slices.Max(res.Iterations); got < c.iterations {
			t.Errorf("%s: %v iterations, want a stratum of at least %d: the list has to be met again after it was built", c.name, res.Iterations, c.iterations)
		}
	}
}

// TestNewObjectErrorNamesSmallestUpdate runs golden case 38 the way the
// corpus cannot: with new objects forbidden. The error names the smallest of
// the updates fired on the unknown object — found by walking the target's
// list and rebuilding each update, method name included — not the first one
// fired, and the same one on every run.
func TestNewObjectErrorNamesSmallestUpdate(t *testing.T) {
	base, prog := goldenCase(t, "38-inserts-on-an-unknown-object.txt")
	ob, p := mustBase(t, base), mustProgram(t, prog)
	want := Update{Kind: term.Ins, V: term.GVID{Object: term.Sym("log")}, Key: term.MethodKey{Method: "about"}, R: term.Sym("nodes")}
	for i := 0; i < 5; i++ {
		_, err := Run(ob, p, Options{ForbidNewObjects: true})
		var ne *NewObjectError
		if !errors.As(err, &ne) {
			t.Fatalf("err = %v, want a NewObjectError", err)
		}
		if ne.Update != want {
			t.Fatalf("the error names %s, want the smallest update %s", ne.Update, want)
		}
	}
	// With the arguments deciding: without r2 and r3 the smallest is
	// seen@n1 -> 0, which r4 fires last.
	p.Rules = []term.Rule{p.Rules[0], p.Rules[3]}
	_, err := Run(ob, p, Options{ForbidNewObjects: true})
	var ne *NewObjectError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want a NewObjectError", err)
	}
	if got, want := ne.Update.String(), "ins[log].seen@n1 -> 0"; got != want {
		t.Fatalf("the error names %s, want %s", got, want)
	}
}

// TestModTargetEqualsRecomputation pins the re-add rule of in-place
// extension: a modify target that loses a result to a later iteration's
// update which an earlier update had put in must end as the source minus
// all old results plus all new ones, whatever the iteration the updates
// arrive in.
func TestModTargetEqualsRecomputation(t *testing.T) {
	ob := mustBase(t, `o.m -> a / m -> b / go -> 1. trig.isa -> t.`)
	// r1 fires in iteration 1 (a -> b). r2 (b -> c) fires only once the
	// insert target of the same stratum exists, i.e. in iteration 2: it
	// removes b — old result of r2, new result of r1 — which must come back.
	p := mustProgram(t, `
r0: ins[trig].on -> yes <- trig.isa -> t.
r1: mod[o].m -> (a, b) <- o.go -> 1.
r2: mod[o].m -> (b, c) <- ins(trig).on -> yes.
`)
	eachEvaluator(t, ob, p, func(t *testing.T, result, _ *objectbase.Base) {
		st := result.StateOf(term.GV(term.Sym("o"), term.Mod))
		var got []string
		for r := range st.Results(term.MethodKey{Method: "m"}) {
			got = append(got, r.String())
		}
		if len(got) != 2 || !st.Has(term.MethodKey{Method: "m"}, term.Sym("b")) || !st.Has(term.MethodKey{Method: "m"}, term.Sym("c")) {
			t.Errorf("mod(o).m = %v, want {b, c}", got)
		}
	})
	res, err := runsLikeSpec(ob, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDelta(ob.Clone().Freeze(), res); err != nil {
		t.Error(err)
	}
}

// goldenSection cuts the named "-- name --" section out of a golden case.
func goldenSection(src, name string) string {
	_, rest, ok := strings.Cut(src, "-- "+name+" --\n")
	if !ok {
		return ""
	}
	body, _, _ := strings.Cut(rest, "\n-- ")
	return body
}

// goldenCase reads the base and the program of a case of the golden corpus.
func goldenCase(t *testing.T, name string) (base, prog string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("../../testdata/golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return goldenSection(string(raw), "base"), goldenSection(string(raw), "program")
}

// renderRun flattens everything observable about a result.
func renderRun(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fired %d iterations %v\n", res.Fired, res.Iterations)
	d := objectbase.DiffChanges(res.Changes)
	fmt.Fprintf(&b, "added %v\nremoved %v\n", d.Added, d.Removed)
	for _, ev := range res.Trace {
		fmt.Fprintln(&b, ev)
	}
	b.WriteString(parser.FormatFacts(res.Final, true))
	return b.String()
}

// corpusCase is one (base, program) pair of the corpus: the base as text or
// as built by a workload.
type corpusCase struct {
	name, base, prog string
	ob               *objectbase.Base
}

// corpus lists every golden case, the fuzz seeds and the standard workloads.
func corpus(t *testing.T) []corpusCase {
	t.Helper()
	var cases []corpusCase
	files, err := filepath.Glob("../../testdata/golden/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden cases found: %v", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, corpusCase{name: filepath.Base(file), base: goldenSection(string(raw), "base"), prog: goldenSection(string(raw), "program")})
	}
	for i, s := range fuzzSeeds {
		cases = append(cases, corpusCase{name: fmt.Sprintf("fuzz-seed-%d", i), base: fuzzBase, prog: s})
	}
	return append(cases,
		corpusCase{name: "enterprise", ob: workload.EnterpriseSpec{Employees: 120, Seed: 3}.ObjectBase(), prog: workload.EnterpriseProgram},
		corpusCase{name: "ancestors", ob: workload.GenealogySpec{Generations: 5, Branching: 2, Roots: 2}.ObjectBase(), prog: workload.AncestorsProgram},
		corpusCase{name: "chains", ob: workload.Items(40), prog: workload.ChainProgram(4)},
	)
}

// parse returns the case's base and program. Every program of the corpus
// parses — the golden rejections are refused when they run — so one that
// does not is a typo in a case, and fails the test rather than dropping the
// case from it.
func (c corpusCase) parse(t *testing.T) (*objectbase.Base, *term.Program) {
	t.Helper()
	p, err := parser.Program(c.prog, c.name)
	if err != nil {
		t.Fatalf("program does not parse: %v", err)
	}
	ob := c.ob
	if ob == nil {
		if ob, err = parser.ObjectBase(c.base, c.name); err != nil {
			t.Fatalf("base: %v", err)
		}
	}
	return ob, p
}

// TestFrozenInputsStayFrozen polices the sharing step 2 of T_P now rests
// on: a derived version holds the very *State of its source until an update
// changes it, so a bug in the copy-before-write rule would edit a published
// head. Over the golden corpus, the fuzz seeds and the standard workloads: a
// run leaves its frozen input as it was; running again on the same input
// gives the same Final, Changes, Fired and Trace; running on the previous
// run's Final leaves both of that run's bases as they were; and result(P),
// fed back as an input, evaluates like a flat copy of itself. The first run
// and the run on result(P) — an input full of versions — are held against
// the spec evaluator on the way.
func TestFrozenInputsStayFrozen(t *testing.T) {
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			ob, p := c.parse(t)
			ob.Freeze()
			opts := Options{Trace: true}
			before := ob.Facts()
			first, err, diff := sameAsSpec(ob, p, opts)
			if diff != nil {
				t.Error(diff)
			}
			if err != nil {
				return // rejected programs are the golden test's business
			}
			if !reflect.DeepEqual(ob.Facts(), before) {
				t.Fatalf("the run changed its frozen input")
			}
			again := mustRun(t, ob, p, opts)
			if a, b := renderRun(first), renderRun(again); a != b {
				t.Fatalf("two runs on one head differ:\n%s\n---\n%s", a, b)
			}
			final, result := first.Final.Facts(), first.Result.Facts()
			if _, err := Run(first.Final, p, opts); err != nil {
				t.Fatalf("second apply: %v", err)
			}
			if !reflect.DeepEqual(first.Final.Facts(), final) || !reflect.DeepEqual(first.Result.Facts(), result) {
				t.Fatalf("applying to the previous Final changed the previous run's bases")
			}
			if !reflect.DeepEqual(ob.Facts(), before) {
				t.Fatalf("the second apply changed the first input")
			}
			// result(P) comes back frozen (it shares states with the input)
			// and must serve as an input exactly like a flat copy of itself.
			onShared, errShared, diff := sameAsSpec(first.Result, p, opts)
			if diff != nil {
				t.Errorf("result(P) as input: %v", diff)
			}
			onCopy, errCopy := Run(first.Result.Clone(), p, opts)
			if (errShared == nil) != (errCopy == nil) {
				t.Fatalf("result(P) as input: %v, its copy: %v", errShared, errCopy)
			}
			if errShared == nil && renderRun(onShared) != renderRun(onCopy) {
				t.Fatalf("result(P) as input evaluates unlike its copy")
			}
			if !reflect.DeepEqual(first.Result.Facts(), result) {
				t.Fatalf("evaluating on result(P) changed it")
			}
		})
	}
}
