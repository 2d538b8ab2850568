package eval

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// Options configures a run.
type Options struct {
	// MaxIterations bounds the iterations per stratum; 0 means the default
	// of 1_000_000. Safe stratified programs terminate on their own; the
	// bound catches engine bugs and deliberately unsafe experiments.
	MaxIterations int
	// Trace records every fired update with its rule, stratum, iteration.
	Trace bool
	// ForbidNewObjects rejects inserts on objects unknown to the base
	// (creating fresh objects is an extension beyond the paper).
	ForbidNewObjects bool
	// Plans supplies pre-compiled match plans (see Compile). They are used
	// when they were compiled for this program, skipping compilation; the
	// repository caches one per published head and rule-set hash.
	Plans *CompiledProgram
	// Span, when non-nil, collects the evaluation as a span tree under it
	// (see internal/obs): stratify → stratum[i] → iteration[j] → rule[k],
	// with delta sizes, firing counts and wall time per node, and
	// runtime/pprof labels (stratum, rule) set around rule matching so CPU
	// profiles attribute to rules. Nil (the default) skips all of it.
	Span *obs.Span
}

// TraceEvent records one fired update during evaluation.
type TraceEvent struct {
	Stratum   int
	Iteration int
	Rule      string
	Update    Update
}

func (t TraceEvent) String() string {
	return fmt.Sprintf("[stratum %d, iteration %d] %s fires %s", t.Stratum+1, t.Iteration, t.Rule, t.Update)
}

// RuleStat aggregates one rule's activity across a run. The stats are
// always collected (a handful of integer adds per iteration); Span-level
// tracing is not required.
type RuleStat struct {
	// Rule is the rule's label (name or r<index>).
	Rule string `json:"rule"`
	// Stratum is the 1-based stratum the rule was assigned to.
	Stratum int `json:"stratum"`
	// Fired counts the distinct ground updates first derived by this rule
	// (each update is attributed to the rule that fired it first, so the
	// per-rule Fired values sum to Result.Fired).
	Fired int `json:"fired"`
	// Emitted counts every update the rule emitted, including duplicates
	// of already-fired updates in later iterations.
	Emitted int `json:"emitted"`
	// Matched counts complete body matches (head truth test not yet
	// applied) — the raw join work the rule caused.
	Matched int `json:"matched"`
	// Iterations is how many T_P iterations evaluated the rule.
	Iterations int `json:"iterations"`
	// TimeUS is the wall-clock microseconds spent matching the rule,
	// summed over its step-1 tasks.
	TimeUS int64 `json:"time_us"`
}

// StratumTiming is the cost of one stratum's fixpoint.
type StratumTiming struct {
	// Duration is the wall-clock time the stratum's T_P iteration took.
	Duration time.Duration
	// Iterations is how many T_P applications it needed.
	Iterations int
}

// Stats carries per-stage timings across the layers of one apply. eval.Run
// fills Stratify, Strata, Copy and Eval; core.Apply adds Safety; the
// repository adds Queue, ConstraintCheck, Encode, CommitWait and Commit; the
// server adds Parse. The
// stage names follow the paper's pipeline: parse, safety, stratification,
// per-stratum T_P fixpoints, the copy phase building ob', and the apply
// phase committing the result.
type Stats struct {
	// Parse is the time spent parsing the program text (callers that start
	// from a parsed program leave it zero).
	Parse time.Duration
	// Queue is the time the apply waited for the applies ahead of it to
	// evaluate and enqueue (repository layer: evaluation is serial). Zero,
	// give or take a lock acquisition, when nothing else is writing.
	Queue time.Duration
	// Safety is the safety check over every rule.
	Safety time.Duration
	// Stratify is the stratification of the program.
	Stratify time.Duration
	// Strata is the per-stratum fixpoint cost, in stratum order.
	Strata []StratumTiming
	// Copy is the copy phase: deriving the updated object base ob' from the
	// input base and the fixpoint's final versions.
	Copy time.Duration
	// Eval is the total time inside eval.Run (stratify through copy).
	Eval time.Duration
	// ConstraintCheck is the integrity-constraint verification of the
	// updated base (repository layer).
	ConstraintCheck time.Duration
	// Commit is the whole apply phase (repository layer). Its two parts:
	// Encode turns the changed states into the journal record's bytes, and
	// CommitWait is the time from joining a group-commit batch until the
	// batch is fsynced and the new head published — queueing plus disk.
	Commit     time.Duration
	Encode     time.Duration
	CommitWait time.Duration
}

// Result is the outcome of running an update-program.
type Result struct {
	// Result is result(P): the fixpoint object base holding every version
	// derived during evaluation.
	Result *objectbase.Base
	// Final is the updated object base ob' of Section 5, built from each
	// object's final version. It is frozen and shares the state of every
	// object the program did not change with the input base; Clone it to
	// obtain a mutable copy.
	Final *objectbase.Base
	// Changes lists the objects whose state differs between the input base
	// and Final, each with its old and new state — the update as a delta.
	// objectbase.DiffChanges turns it into the fact-level diff (and sorts
	// it by version, as does anything else that walks it in diff order).
	Changes []objectbase.Change
	// Assignment is the stratification used.
	Assignment *strata.Assignment
	// Iterations records how many T_P applications each stratum took.
	Iterations []int
	// Fired is the total number of distinct ground updates fired.
	Fired int
	// Trace holds fired-update events when Options.Trace was set.
	Trace []TraceEvent
	// RuleStats aggregates per-rule firing counts, match work and wall
	// time, hottest (most time) first. Always filled.
	RuleStats []RuleStat
	// Plan records where the match plans came from: "cached" (the supplied
	// Options.Plans) or "compiled" (built this run).
	Plan string
	// Plans holds the compiled plans the run used, so callers can cache them
	// for the next apply against the same head.
	Plans *CompiledProgram
	// Stats holds per-stage timings for this run; layers above eval add
	// their own stages (see Stats).
	Stats Stats
}

// LinearityError reports a violation of version-linearity (Section 5): two
// versions of the same object that are not subterm-comparable.
type LinearityError struct {
	Object term.OID
	A, B   term.GVID
}

func (e *LinearityError) Error() string {
	return fmt.Sprintf("eval: result is not version-linear: versions %s and %s of object %s are not subterm-comparable", e.A, e.B, e.Object)
}

// IterationLimitError reports that a stratum did not reach its fixpoint
// within Options.MaxIterations.
type IterationLimitError struct {
	Stratum int
	Limit   int
}

func (e *IterationLimitError) Error() string {
	return fmt.Sprintf("eval: stratum %d did not reach a fixpoint within %d iterations", e.Stratum+1, e.Limit)
}

// NewObjectError reports an insert on an object unknown to the base when
// Options.ForbidNewObjects is set.
type NewObjectError struct {
	Update Update
}

func (e *NewObjectError) Error() string {
	return fmt.Sprintf("eval: update %s addresses an object with no existing version (new-object creation is disabled)", e.Update)
}

const defaultMaxIterations = 1_000_000

// dedupSpill is the per-target list length past which fired-update
// deduplication switches from linear scan to the spill map (see
// stratumRun.collect).
const dedupSpill = 16

// engine carries the mutable evaluation state.
type engine struct {
	base *objectbase.Base
	opts Options
	// deepest maps an object to its deepest version, for the objects that
	// have one besides the object itself: those the input base lists as
	// unsettled, and every target the fixpoint derives. An object without
	// an entry is its own deepest version. The final copy visits exactly
	// these entries.
	deepest map[term.OID]term.GVID
	fired   int
	// labels[ri] is rule ri's display label; agg[ri] its running stats.
	labels []string
	agg    []ruleAgg
	// compiled holds the rules' match plans, x the executor that runs them.
	compiled *CompiledProgram
	x        *executor
	// p0 is the frozen input base, the parent of the overlay base. Heads
	// always push paths, so path-0 versions are never shadowed by the
	// overlay's own layer; reads of them can go straight to the parent and
	// skip the guaranteed own-layer miss.
	p0 *objectbase.Base
	// ups holds every fired update of the run, written once, in firing
	// order; targets every (stratum, target version) they were fired on.
	// Result.Trace is assembled from ups at the end of Run.
	ups     slab[firedUpdate]
	targets slab[targetUpdates]
	gone    []keyResult // extend's scratch
}

// readBase returns the base to read version g from (see engine.p0).
func (e *engine) readBase(g term.GVID) *objectbase.Base {
	if g.Path.Len() == 0 {
		return e.p0
	}
	return e.base
}

// slab hands out zeroed values that never move, from chunks that double
// from 2 to 512 entries: a run that needs one pays for two, one that needs
// ten thousand makes two dozen allocations and leaves at most 511 unused,
// and nothing is reserved on an estimate.
type slab[T any] struct{ chunks [][]T }

func (s *slab[T]) next() *T {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		size := 2
		if n > 0 {
			size = min(2*cap(s.chunks[n-1]), 512)
		}
		s.chunks = append(s.chunks, make([]T, 0, size))
		n++
	}
	c := &s.chunks[n-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

// firedUpdate is one fired update: what it does to its target (the version
// and the kind are the target's, see update), the rule and iteration that
// derived it first, and the link to the target's next update.
type firedUpdate struct {
	tu         *targetUpdates
	next       *firedUpdate
	key        term.MethodKey
	r, r2      term.OID
	rule, iter int32
}

// update rebuilds the Update the entry was fired as.
func (f *firedUpdate) update() Update {
	w := f.tu.w
	path, kind := w.Path.Pop()
	return Update{Kind: kind, V: term.GVID{Object: w.Object, Path: path}, Key: f.key, R: f.r, R2: f.r2}
}

// targetUpdates is one target version w within a stratum: the deduplicated
// updates fired on it, as a list through engine.ups in firing order, and
// the state they have been applied to. This is step 2 of T_P with the
// paper's footnote 4 taken literally: a version that is only relevant
// shares the frozen state of v* (or, when w is already active, of w
// itself) by pointer; the first update that changes anything copies it,
// once, and from then on w is extended in place with the updates each
// iteration adds. All updates of one target have the same kind and version:
// w is kind(version).
type targetUpdates struct {
	w           term.GVID
	stratum     int
	first, last *firedUpdate
	fresh       *firedUpdate // the first update not yet applied to st
	n           int          // list length
	// st is w's state; nil until the target's first applyTargets. owned
	// says it is a private copy, free to edit. appears marks a target the
	// base does not hold yet (installed by appear); prev is then the state w
	// had without being active — nil but for hand-written input versions
	// that lack the exists method.
	st, prev *objectbase.State
	owned    bool
	appears  bool
}

// ruleAgg is the always-on per-rule accumulator behind Result.RuleStats.
type ruleAgg struct {
	stratum    int // 1-based; 0 until the rule's stratum runs
	fired      int
	emitted    int
	matched    int64
	iterations int
	time       time.Duration
}

// Run evaluates the update-program p on the object base ob: it stratifies
// p, iterates T_P stratum by stratum to the fixpoint, checks version-
// linearity online, and builds the updated object base. ob is not
// modified. Callers wanting safety diagnostics run package safety first;
// Run refuses an unsafe rule with the *CompileError of its match plan.
func Run(ob *objectbase.Base, p *term.Program, opts Options) (*Result, error) {
	sp := opts.Span
	evalStart := time.Now()
	stratifySpan := sp.StartChild("stratify")
	assignment, err := strata.Stratify(p)
	stratifySpan.End()
	if err != nil {
		return nil, err
	}
	stratifySpan.SetInt("strata", int64(len(assignment.Strata)))
	stratifyDur := time.Since(evalStart)
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = defaultMaxIterations
	}
	// Evaluation runs over a copy-on-write overlay of the frozen input:
	// path-0 facts are read through to the shared parent, only derived
	// versions materialize in the overlay's own layer, and the updated base
	// is derived from the input, sharing what did not change. A mutable
	// input is cloned and frozen first (an overlay over a mutating parent
	// would be unsound), so both kinds take the same path from here on.
	if !ob.Frozen() {
		ob = ob.Clone().Freeze()
	}
	compiled, planAttr := opts.Plans, "cached"
	if !compiled.Matches(p) {
		if compiled, err = Compile(ob, p, false); err != nil {
			return nil, err
		}
		planAttr = "compiled"
	}
	e := &engine{
		base:     objectbase.Overlay(ob),
		p0:       ob,
		opts:     opts,
		deepest:  make(map[term.OID]term.GVID),
		labels:   p.RuleLabels(),
		agg:      make([]ruleAgg, len(p.Rules)),
		compiled: compiled,
	}
	e.x = newExecutor(e.base)
	sp.SetAttr("plan", planAttr)
	if err := e.seedDeepest(); err != nil {
		return nil, err
	}

	res := &Result{Assignment: assignment, Plan: planAttr, Plans: e.compiled}
	res.Stats.Stratify = stratifyDur
	for si, stratum := range assignment.Strata {
		stratumStart := time.Now()
		var stratumSpan *obs.Span
		if sp != nil {
			stratumSpan = sp.StartChild("stratum " + strconv.Itoa(si+1))
			stratumSpan.SetInt("rules", int64(len(stratum)))
		}
		iters, err := e.runStratum(si, stratum, stratumSpan)
		stratumSpan.SetInt("iterations", int64(iters))
		stratumSpan.End()
		if err != nil {
			return nil, err
		}
		res.Iterations = append(res.Iterations, iters)
		res.Stats.Strata = append(res.Stats.Strata, StratumTiming{
			Duration: time.Since(stratumStart), Iterations: iters,
		})
	}
	// result(P) shares the states of versions no update changed with the
	// input base: frozen, nobody can edit the input through it.
	res.Result = e.base.Freeze()
	copyStart := time.Now()
	copySpan := sp.StartChild("copy")
	res.Final, res.Changes = e.finalize()
	copySpan.SetInt("objects", int64(len(e.deepest)))
	copySpan.SetInt("changed", int64(len(res.Changes)))
	copySpan.End()
	res.Stats.Copy = time.Since(copyStart)
	res.Stats.Eval = time.Since(evalStart)
	res.Fired = e.fired
	res.RuleStats = e.ruleStats()
	res.Trace = e.buildTrace()
	return res, nil
}

// buildTrace assembles Result.Trace, exactly sized, from the run's update
// log. Candidate enumeration follows map order, so firing order within an
// iteration is arbitrary; the events are sorted into a canonical order so
// runs are reproducible.
func (e *engine) buildTrace() []TraceEvent {
	if !e.opts.Trace || e.fired == 0 {
		return nil
	}
	trace := make([]TraceEvent, 0, e.fired)
	for _, chunk := range e.ups.chunks {
		for i := range chunk {
			f := &chunk[i]
			trace = append(trace, TraceEvent{
				Stratum: f.tu.stratum, Iteration: int(f.iter),
				Rule:   e.labels[f.rule],
				Update: f.update(),
			})
		}
	}
	slices.SortFunc(trace, func(a, b TraceEvent) int {
		if c := cmp.Compare(a.Stratum, b.Stratum); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Iteration, b.Iteration); c != 0 {
			return c
		}
		if c := strings.Compare(a.Rule, b.Rule); c != 0 {
			return c
		}
		return a.Update.compare(b.Update)
	})
	return trace
}

// seedDeepest enters the input base's unsettled versions into the deepest-
// version map and verifies the input itself is version-linear. Settled
// objects need no entry, and an updated base ob' lists nothing, so the
// seeding costs nothing on a repository head. A single unsorted pass
// suffices: while no violation has been seen, every version of an object is
// a prefix of the running deepest (or extends it), so any version
// incomparable with some earlier one is also incomparable with the running
// deepest and is caught when it arrives. (The object itself is a prefix of
// all its versions and cannot take part in a violation.)
func (e *engine) seedDeepest() error {
	for _, v := range e.p0.Unsettled() {
		d, ok := e.deepest[v.Object]
		if !ok {
			e.deepest[v.Object] = v
			continue
		}
		if !v.Comparable(d) {
			return &LinearityError{Object: v.Object, A: d, B: v}
		}
		if v.Path.Len() > d.Path.Len() {
			e.deepest[v.Object] = v
		}
	}
	return nil
}

// ruleStats snapshots the per-rule accumulators, hottest first (by match
// time, then fired count, then rule order).
func (e *engine) ruleStats() []RuleStat {
	out := make([]RuleStat, len(e.agg))
	for i, a := range e.agg {
		out[i] = RuleStat{
			Rule: e.labels[i], Stratum: a.stratum,
			Fired: a.fired, Emitted: a.emitted, Matched: int(a.matched),
			Iterations: a.iterations, TimeUS: a.time.Microseconds(),
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TimeUS != out[j].TimeUS {
			return out[i].TimeUS > out[j].TimeUS
		}
		return out[i].Fired > out[j].Fired
	})
	return out
}

// bucket holds the facts of one (path, method) the last iteration added: the
// semi-naive delta, as the compiled delta variants read it. The storage is
// reused from iteration to iteration; room is the capacity the coming fill
// may need.
type bucket struct {
	method string
	facts  []term.Fact
	room   int
}

// stratumRun is the working state of one stratum's fixpoint.
type stratumRun struct {
	e        *engine
	si, iter int
	// byTarget groups the updates fired so far (T¹ accumulated; within a
	// stratum it only grows, see DESIGN.md on intra-stratum monotonicity)
	// per target version, and doubles as the fired set: an update is known
	// iff it is in its target's list. Small lists (the overwhelming
	// majority) dedup by linear scan; once a list passes dedupSpill its
	// updates move to the spill map, so accumulator targets (recursive
	// closures collecting thousands of inserts on one version) keep O(1)
	// membership checks without hashing every emitted update — the Update
	// struct is large and hash-dominated — on the common path.
	byTarget map[term.GVID]*targetUpdates
	spill    map[Update]struct{}
	// dirty lists the targets that received updates this iteration; only
	// they change — everything else a state depends on (its source, its own
	// update list) is fixed within the stratum. fresh counts the updates.
	dirty []*targetUpdates
	fresh int
	// freshByRule feeds the per-rule iteration spans; nil unless tracing so
	// the hot path stays map-free.
	freshByRule map[int]int
	// buckets holds one delta bucket per (path, method) some rule of the
	// stratum can be seeded from, byPath the same buckets per path; both
	// nil when no rule consumes a delta.
	buckets map[pmKey]*bucket
	byPath  map[term.Path][]*bucket
}

// collect is the one sink of step 1: it enters an emitted update into its
// target's list unless it is known already.
func (s *stratumRun) collect(ri int, u Update) {
	e := s.e
	w := u.Target()
	tu := s.byTarget[w]
	if tu == nil {
		tu = e.targets.next()
		tu.w, tu.stratum = w, s.si
		if s.byTarget == nil {
			s.byTarget = make(map[term.GVID]*targetUpdates)
		}
		s.byTarget[w] = tu
	}
	if tu.n <= dedupSpill {
		for f := tu.first; f != nil; f = f.next {
			if f.key == u.Key && f.r == u.R && f.r2 == u.R2 {
				return
			}
		}
		if tu.n == dedupSpill {
			if s.spill == nil {
				s.spill = make(map[Update]struct{}, 4*dedupSpill)
			}
			for f := tu.first; f != nil; f = f.next {
				s.spill[f.update()] = struct{}{}
			}
			s.spill[u] = struct{}{}
		}
	} else {
		if _, known := s.spill[u]; known {
			return
		}
		s.spill[u] = struct{}{}
	}
	f := e.ups.next()
	*f = firedUpdate{tu: tu, key: u.Key, r: u.R, r2: u.R2, rule: int32(ri), iter: int32(s.iter)}
	if tu.last == nil {
		tu.first = f
	} else {
		tu.last.next = f
	}
	tu.last = f
	tu.n++
	if tu.fresh == nil {
		tu.fresh = f
		s.dirty = append(s.dirty, tu)
	}
	s.fresh++
	e.fired++
	e.agg[ri].fired++
	if s.freshByRule != nil {
		s.freshByRule[ri]++
	}
}

// runStratum iterates T_P over the given rules until the fixpoint,
// recording iteration spans under stratumSpan when tracing.
func (e *engine) runStratum(si int, ruleIdx []int, stratumSpan *obs.Span) (int, error) {
	s := &stratumRun{e: e, si: si}
	if stratumSpan != nil {
		s.freshByRule = make(map[int]int)
	}
	for _, ri := range ruleIdx {
		e.agg[ri].stratum = si + 1
		// Semi-naive iteration only pays for a delta some rule of the
		// stratum can consume, and only for the (path, method) keys its
		// seeds read. A stratum without any — every body literal reads facts
		// frozen in-stratum — reaches its fixpoint after one changing
		// iteration.
		for _, key := range e.compiled.rules[ri].deltaKeys {
			if s.buckets == nil {
				s.buckets = make(map[pmKey]*bucket)
				s.byPath = make(map[term.Path][]*bucket)
			}
			if s.buckets[key] == nil {
				b := &bucket{method: key.Method}
				s.buckets[key] = b
				s.byPath[key.Path] = append(s.byPath[key.Path], b)
			}
		}
	}

	var tasks []fireTask
	var stats []fireStat
	added := 0 // facts the previous iteration added
	for s.iter = 1; ; s.iter++ {
		iter := s.iter
		if iter > e.opts.MaxIterations {
			return iter, &IterationLimitError{Stratum: si, Limit: e.opts.MaxIterations}
		}
		tasks, stats = tasks[:0], stats[:0]
		if iter == 1 {
			for _, ri := range ruleIdx {
				tasks = append(tasks, fireTask{ri: ri, pos: -1})
			}
		} else {
			if added == 0 {
				return iter - 1, nil
			}
			// One task per delta seed whose bucket received facts.
			for _, ri := range ruleIdx {
				for i, key := range e.compiled.rules[ri].deltaKeys {
					if facts := s.buckets[key].facts; len(facts) > 0 {
						tasks = append(tasks, fireTask{ri: ri, pos: i, delta: facts})
					}
				}
			}
		}

		var itSpan *obs.Span
		if stratumSpan != nil {
			itSpan = stratumSpan.StartChild("iteration " + strconv.Itoa(iter))
			itSpan.SetInt("delta_in", int64(added))
			clear(s.freshByRule)
		}
		s.fresh = 0
		for ti, t := range tasks {
			ri, emitted := t.ri, 0
			st, err := e.step1(si, t, func(u Update) error {
				emitted++
				s.collect(ri, u)
				return nil
			})
			if err != nil {
				itSpan.End()
				return iter, err
			}
			st.emitted = emitted
			stats = append(stats, st)
			a := &e.agg[ri]
			a.emitted += emitted
			a.matched += st.matched
			a.time += st.dur
			if ti == 0 || tasks[ti-1].ri != ri {
				a.iterations++
			}
		}
		if itSpan != nil {
			e.addRuleSpans(itSpan, tasks, stats, s.freshByRule)
			itSpan.SetInt("fresh_updates", int64(s.fresh))
		}
		if s.fresh == 0 {
			itSpan.End()
			return iter, nil
		}
		targets := len(s.dirty)
		var changed bool
		var err error
		changed, added, err = s.applyTargets()
		if itSpan != nil {
			itSpan.SetInt("targets", int64(targets))
			itSpan.SetInt("facts_added", int64(added))
			itSpan.End()
		}
		if err != nil {
			return iter, err
		}
		if !changed {
			return iter, nil
		}
		if s.buckets == nil {
			// No rule here can fire from in-stratum additions, so a changing
			// iteration is already the fixpoint.
			return iter, nil
		}
	}
}

// addRuleSpans attaches one child span per rule evaluated in the
// iteration, aggregating its step-1 tasks (a rule can run several delta
// tasks): earliest start, summed duration, match/emit/fired counts.
func (e *engine) addRuleSpans(itSpan *obs.Span, tasks []fireTask, stats []fireStat, freshByRule map[int]int) {
	type ruleIterAgg struct {
		start   time.Time
		dur     time.Duration
		matched int64
		emitted int
	}
	order := make([]int, 0, len(tasks))
	byRule := make(map[int]*ruleIterAgg)
	for ti, t := range tasks {
		a := byRule[t.ri]
		if a == nil {
			a = &ruleIterAgg{start: stats[ti].start}
			byRule[t.ri] = a
			order = append(order, t.ri)
		}
		if stats[ti].start.Before(a.start) {
			a.start = stats[ti].start
		}
		a.dur += stats[ti].dur
		a.matched += stats[ti].matched
		a.emitted += stats[ti].emitted
	}
	for _, ri := range order {
		a := byRule[ri]
		rs := itSpan.AddChild("rule "+e.labels[ri], a.start, a.dur)
		rs.SetInt("matched", a.matched)
		rs.SetInt("emitted", int64(a.emitted))
		rs.SetInt("fired", int64(freshByRule[ri]))
	}
}

// deltaSink receives the facts an iteration adds to one version: it counts
// them all and files those some rule can be seeded from in their buckets.
type deltaSink struct {
	w  term.GVID
	bs []*bucket // the buckets of w's path
	n  int
}

func (d *deltaSink) add(k term.MethodKey, r term.OID) {
	d.n++
	for _, b := range d.bs {
		if b.method == k.Method {
			b.facts = append(b.facts, term.Fact{V: d.w, Method: k.Method, Args: k.Args, Result: r})
		}
	}
}

// applyTargets performs steps 2 and 3 of T_P for the iteration's dirty
// targets: a target the base does not hold yet is installed, sharing its
// source's state; every target is then extended by its fresh updates. It
// returns whether the base changed and how many facts were added; the added
// facts some rule can be seeded from are left in the delta buckets.
func (s *stratumRun) applyTargets() (changed bool, added int, err error) {
	e, dirty := s.e, s.dirty
	slices.SortFunc(dirty, func(a, b *targetUpdates) int { return a.w.Compare(b.w) })
	if len(e.deepest) == 0 {
		// One entry per touched object at most; sized here, not from the
		// input base, so an update pays for what it touches.
		e.deepest = make(map[term.OID]term.GVID, len(dirty))
	}
	for _, b := range s.buckets {
		b.facts, b.room = b.facts[:0], 0
	}

	// Checks first, in target order (deterministic error reporting), along
	// with where each new target starts from and how much room the delta
	// buckets need — nothing is mutated until every target has passed.
	for _, tu := range dirty {
		w := tu.w
		if tu.st == nil {
			if err := e.locate(tu); err != nil {
				return false, 0, err
			}
		}
		// Version-linearity, checked online as Section 5 suggests.
		d, ok := e.deepest[w.Object]
		if !ok {
			d = term.GVID{Object: w.Object}
		}
		if !w.Comparable(d) {
			return false, 0, &LinearityError{Object: w.Object, A: d, B: w}
		}
		if w.Path.Len() > d.Path.Len() {
			e.deepest[w.Object] = w
		}
		for _, b := range s.byPath[w.Path] {
			if tu.appears {
				tu.st.ForEachOfMethod(b.method, func(term.MethodKey, term.OID) { b.room++ })
			}
			if w.Path.Outer() != term.Del {
				for f := tu.fresh; f != nil; f = f.next {
					if f.key.Method == b.method {
						b.room++
					}
				}
			}
		}
	}
	for _, b := range s.buckets {
		b.facts = slices.Grow(b.facts, b.room)
	}

	e.base.GrowStates(len(dirty))
	for _, tu := range dirty {
		sink := deltaSink{w: tu.w, bs: s.byPath[tu.w.Path]}
		if tu.appears {
			changed = e.appear(tu, &sink) || changed
		} else {
			changed = e.extend(tu, &sink) || changed
		}
		added += sink.n
		tu.fresh = nil
	}
	s.dirty = dirty[:0]
	return changed, added, nil
}

// locate finds the state a target starts the stratum from: its own when the
// version is active already, otherwise that of v* — shared, not copied — or,
// for an object no version of which exists, a fresh state holding exists
// (creation of new objects is an extension; see DESIGN.md).
func (e *engine) locate(tu *targetUpdates) error {
	w := tu.w
	existsKey := term.MethodKey{Method: term.ExistsMethod}
	cur := e.base.StateOf(w)
	if cur != nil && cur.HasMethod(existsKey) {
		tu.st = cur
		return nil
	}
	tu.appears, tu.prev = true, cur
	// Path-0 parents can be read straight from the frozen base: the
	// overlay's own layer never holds path-0 versions (heads push), so
	// readBase skips the guaranteed own-layer miss.
	path, _ := w.Path.Pop()
	v := term.GVID{Object: w.Object, Path: path}
	if vstar, ok := e.readBase(v).VStar(v); ok {
		tu.st = e.readBase(vstar).StateOf(vstar)
		return nil
	}
	if e.opts.ForbidNewObjects {
		first := tu.first.update()
		for f := tu.first.next; f != nil; f = f.next {
			if u := f.update(); u.compare(first) < 0 {
				first = u
			}
		}
		return &NewObjectError{Update: first}
	}
	tu.st, tu.owned = objectbase.NewState(), true
	tu.st.Add(existsKey, w.Object)
	return nil
}

// appear installs a target the base does not hold yet and applies its
// updates. Every fact of the new version is new to the base.
func (e *engine) appear(tu *targetUpdates, d *deltaSink) (changed bool) {
	prev := tu.prev
	tu.appears, tu.prev = false, nil
	if prev == nil {
		// The common case skips SetState's lookup and equality work.
		e.base.SetStateFresh(tu.w, tu.st)
		changed = true
	} else {
		changed = e.base.SetState(tu.w, tu.st)
	}
	var quiet deltaSink
	changed = e.extend(tu, &quiet) || changed
	if prev == nil && len(d.bs) == 0 {
		d.n += tu.st.Size()
		return changed
	}
	tu.st.ForEach(func(k term.MethodKey, r term.OID) {
		if prev == nil || !prev.Has(k, r) {
			d.add(k, r)
		}
	})
	return changed
}

// own gives the target a private copy of its state, with room for the
// updates that wait: the one copy step 2 of T_P makes of a version — and,
// for an object's deepest version, the only one the apply makes of that
// state (see finalize).
func (e *engine) own(tu *targetUpdates, room int) {
	tu.st = tu.st.CloneWithRoom(room)
	tu.owned = true
	e.base.Adopt(tu.w, tu.st)
}

// extend applies the target's fresh updates to its state, copying the state
// first if it is still shared and an update changes it, and reports the
// added facts to d. Insert and delete targets are monotone, so the fresh
// updates are all there is to do. A modify target removes the fresh old
// results and then re-adds every new result it has accumulated — a fresh
// removal may have taken one out — which leaves the state equal to the
// source minus all old results plus all new ones, what applying the whole
// update set to a fresh copy of the source would give.
func (e *engine) extend(tu *targetUpdates, d *deltaSink) (changed bool) {
	w := tu.w
	switch w.Path.Outer() {
	case term.Ins:
		for f := tu.fresh; f != nil; f = f.next {
			if !tu.owned {
				if tu.st.Has(f.key, f.r) {
					continue
				}
				room := 1
				for g := f.next; g != nil; g = g.next {
					room++
				}
				e.own(tu, room)
			}
			if e.base.AddTo(w, tu.st, f.key, f.r) {
				changed = true
				d.add(f.key, f.r)
			}
		}
	case term.Del:
		for f := tu.fresh; f != nil; f = f.next {
			if !tu.owned {
				if !tu.st.Has(f.key, f.r) {
					continue
				}
				e.own(tu, 0)
			}
			changed = e.base.RemoveFrom(w, tu.st, f.key, f.r) || changed
		}
	case term.Mod:
		if !tu.owned {
			touches := false
			for f := tu.fresh; f != nil && !touches; f = f.next {
				touches = f.r != f.r2 && (tu.st.Has(f.key, f.r) || !tu.st.Has(f.key, f.r2))
			}
			if !touches {
				return false
			}
			e.own(tu, 0) // a modify puts in what it takes out
		}
		gone := e.gone[:0]
		for f := tu.fresh; f != nil; f = f.next {
			if e.base.RemoveFrom(w, tu.st, f.key, f.r) {
				gone = append(gone, keyResult{f.key, f.r})
			}
		}
		lost := len(gone)
		for f := tu.first; f != nil; f = f.next {
			if !e.base.AddTo(w, tu.st, f.key, f.r2) {
				continue
			}
			if slices.Contains(gone, keyResult{f.key, f.r2}) {
				lost-- // was there before the iteration: not new
			} else {
				changed = true
				d.add(f.key, f.r2)
			}
		}
		changed = changed || lost > 0
		e.gone = gone[:0]
	}
	return changed
}

// finalize is the copy phase of Section 5 as a delta over the input base:
// e.deepest holds every object whose final version is not simply the
// object as the input has it (seeded by seedDeepest, maintained online by
// applyTargets), so only those are visited, and an object is copied only
// after its final state is known to differ from its old one — a final
// version no update changed still shares the old state, and FinalEquals
// settles the rest without building anything. A final state that differs is
// not copied either when it is in final form already (the copy own made of
// the object's state keeps its exists -> o): result(P) and ob' are both
// frozen, so the object takes the version's state by pointer, the sharing
// Derive does for everything untouched; only a state with a foreign exists
// goes through CloneFinal. Derived versions are never
// empty — the exists method is forbidden in rule heads, so every state
// keeps at least its exists facts — hence every deepest version is present
// in the base. The result equals Finalize(e.base); everything untouched is
// shared with the input (see objectbase.Derive).
func (e *engine) finalize() (*objectbase.Base, []objectbase.Change) {
	var changes []objectbase.Change
	left := len(e.deepest)
	for o, final := range e.deepest {
		left--
		obj := term.GVID{Object: o}
		old := e.p0.StateOf(obj)
		var ns *objectbase.State
		if st := e.base.StateOf(final); st != nil && !st.OnlyExists() {
			if old != nil && st.FinalEquals(o, old) {
				continue
			}
			ns = st
			if !st.FinalEquals(o, st) { // not in final form: a foreign exists
				ns = st.CloneFinal(o)
			}
		} else if old == nil {
			continue
		}
		if changes == nil {
			// Sized at the first object that did change: an apply that
			// changes nothing reserves nothing, one that changes everything
			// it touched allocates once.
			changes = make([]objectbase.Change, 0, left+1)
		}
		changes = append(changes, objectbase.Change{V: obj, Old: old, New: ns})
	}
	// ob' holds objects only: input versions proper go.
	for _, v := range e.p0.Unsettled() {
		if !v.IsObject() {
			changes = append(changes, objectbase.Change{V: v, Old: e.p0.StateOf(v)})
		}
	}
	return e.p0.Derive(changes), changes
}

// Finalize builds the updated object base ob' of Section 5 from a fixpoint
// base: for every object, the method applications of its final (deepest)
// version are copied under the plain OID. Objects whose final state holds
// nothing but exists vanish.
func Finalize(result *objectbase.Base) *objectbase.Base {
	out := objectbase.New()
	out.DeferVIDIndex()
	for o, versions := range result.VersionsByObject() {
		final := term.GVID{Object: o}
		found := false
		for _, v := range versions {
			if !found || v.Path.Len() > final.Path.Len() {
				final, found = v, true
			}
		}
		if !found {
			continue
		}
		st := result.StateOf(final)
		if st == nil || st.OnlyExists() {
			continue
		}
		// out gets one state per object, so every install is fresh.
		out.SetStateFresh(term.GVID{Object: o}, st.CloneFinal(o))
	}
	return out
}
