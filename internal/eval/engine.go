package eval

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// Strategy selects the fixpoint iteration scheme within a stratum.
type Strategy uint8

const (
	// SemiNaive re-derives, after the first iteration of a stratum, only
	// rule firings supported by at least one fact added in the previous
	// iteration. It is the default.
	SemiNaive Strategy = iota
	// Naive re-enumerates every rule against the full base each iteration.
	Naive
)

func (s Strategy) String() string {
	if s == Naive {
		return "naive"
	}
	return "semi-naive"
}

// Options configures a run.
type Options struct {
	// Strategy selects naive or semi-naive iteration (default SemiNaive).
	Strategy Strategy
	// MaxIterations bounds the iterations per stratum; 0 means the default
	// of 1_000_000. Safe stratified programs terminate on their own; the
	// bound catches engine bugs and deliberately unsafe experiments.
	MaxIterations int
	// Trace records every fired update with its rule, stratum, iteration.
	Trace bool
	// ForbidNewObjects rejects inserts on objects unknown to the base
	// (creating fresh objects is an extension beyond the paper).
	ForbidNewObjects bool
	// Parallelism sets the worker count for rule matching and state
	// computation within an iteration (both read-only over the base).
	// Values below 2 evaluate sequentially. The computed fixpoint is
	// identical; only wall-clock time changes.
	Parallelism int
	// StaticPlanner disables statistics-based join ordering: bodies are
	// evaluated with the source-order planner instead of ordering
	// generators by index cardinality. The fixpoint is identical; this
	// exists for the planner ablation experiment.
	StaticPlanner bool
	// Interpreted forces the map-substitution interpreter (match.go)
	// instead of compiled match plans. The fixpoint is identical; the
	// metamorphic suite diffs the two paths, and the flag doubles as an
	// escape hatch.
	Interpreted bool
	// Plans supplies pre-compiled match plans (see Compile). They are used
	// when they match the program and planner mode, skipping compilation;
	// the repository caches one per published head and rule-set hash.
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
	// summed over its step-1 tasks (under parallelism, task times overlap).
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
// repository adds ConstraintCheck, Encode, CommitWait and Commit; the server
// adds Parse. The
// stage names follow the paper's pipeline: parse, safety, stratification,
// per-stratum T_P fixpoints, the copy phase building ob', and the apply
// phase committing the result.
type Stats struct {
	// Parse is the time spent parsing the program text (callers that start
	// from a parsed program leave it zero).
	Parse time.Duration
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
	// Plan records how bodies were evaluated: "cached" (supplied compiled
	// plans reused), "compiled" (plans built this run) or "interpreted"
	// (match.go, forced or fallback).
	Plan string
	// Plans holds the compiled plans the run used (nil when interpreted),
	// so callers can cache them for the next apply against the same head.
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
// runStratum).
const dedupSpill = 16

// engine carries the mutable evaluation state.
type engine struct {
	prog  *term.Program
	base  *objectbase.Base
	m     *matcher
	plans []plan
	opts  Options
	// deepest maps an object to its deepest version, for the objects that
	// have one besides the object itself: those the input base lists as
	// unsettled, and every target the fixpoint derives. An object without
	// an entry is its own deepest version. The final copy visits exactly
	// these entries.
	deepest map[term.OID]term.GVID
	trace   []TraceEvent
	fired   int
	// labels[ri] is rule ri's display label; agg[ri] its running stats.
	labels []string
	agg    []ruleAgg
	// Compiled-plan state: compiled is nil on the interpreted path. x is
	// the sequential executor; parallel workers build their own. buckets
	// holds the current iteration's delta facts grouped by (path, method)
	// for the delta-seeded plan variants.
	compiled *CompiledProgram
	x        *executor
	buckets  map[pmKey][]term.Fact
	// arena backs the states cloned by the sequential target computation;
	// parallel workers carve from their own.
	arena objectbase.StateArena
	// p0 is the frozen input base, the parent of the overlay base. Heads
	// always push paths, so path-0 versions are never shadowed by the
	// overlay's own layer; reads of them can go straight to the parent and
	// skip the guaranteed own-layer miss.
	p0 *objectbase.Base
}

// readBase returns the base to read version g from (see engine.p0).
func (e *engine) readBase(g term.GVID) *objectbase.Base {
	if g.Path.Len() == 0 {
		return e.p0
	}
	return e.base
}

// targetUpdates accumulates one target version's deduplicated updates over
// a stratum. mark is the last iteration that appended to ups; runStratum
// uses it to build the per-iteration dirty list without a second map.
// ups starts as a view of ups0 (capacity-clamped, so growth reallocates):
// the overwhelming majority of targets receive exactly one update, and the
// inline slot spares them a heap allocation. Instances come from
// per-iteration slabs, so a 10k-target iteration costs one allocation, not
// 10k.
type targetUpdates struct {
	w    term.GVID
	ups  []Update
	mark int
	ups0 [1]Update
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
// Run itself assumes nothing and surfaces unbound-variable errors lazily.
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
	e := &engine{
		prog:    p,
		base:    objectbase.Overlay(ob),
		p0:      ob,
		opts:    opts,
		plans:   make([]plan, len(p.Rules)),
		deepest: make(map[term.OID]term.GVID),
		labels:  make([]string, len(p.Rules)),
		agg:     make([]ruleAgg, len(p.Rules)),
	}
	e.m = newMatcher(e.base)
	for i, r := range p.Rules {
		e.plans[i] = planRule(r)
		e.labels[i] = r.Label(i)
	}
	planAttr := "interpreted"
	if !opts.Interpreted {
		if opts.Plans.Matches(p, opts.StaticPlanner) {
			e.compiled = opts.Plans
			planAttr = "cached"
		} else if cp, cerr := Compile(ob, p, opts.StaticPlanner); cerr == nil {
			e.compiled = cp
			planAttr = "compiled"
		}
		// On a compile error the whole program runs interpreted: mixing the
		// two paths within one fixpoint would complicate the delta plumbing
		// for no gain, and compile errors are rare shapes.
	}
	if e.compiled != nil {
		e.x = newExecutor(e.base)
	}
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
	res.Result = e.base
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
	// Candidate enumeration follows map order, so raw trace order within an
	// iteration is arbitrary; sort it into a canonical order so runs are
	// reproducible (parallel or not).
	sort.Slice(e.trace, func(i, j int) bool {
		a, b := e.trace[i], e.trace[j]
		if a.Stratum != b.Stratum {
			return a.Stratum < b.Stratum
		}
		if a.Iteration != b.Iteration {
			return a.Iteration < b.Iteration
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Update.compare(b.Update) < 0
	})
	res.Trace = e.trace
	return res, nil
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

// runStratum iterates T_P over the given rules until the fixpoint,
// recording iteration spans under stratumSpan when tracing.
func (e *engine) runStratum(si int, ruleIdx []int, stratumSpan *obs.Span) (int, error) {
	// Re-plan this stratum's rules against current statistics: version
	// populations change as lower strata run, so cardinalities measured
	// now reflect what the joins will actually scan. Compiled plans are
	// built once against the input base (with index selectivity folded
	// in); only the interpreted path re-plans per stratum.
	if e.compiled == nil && !e.opts.StaticPlanner {
		est := statsCost(e.base)
		for _, ri := range ruleIdx {
			e.plans[ri] = planRuleCost(e.prog.Rules[ri], est)
		}
	}
	// fired accumulates T¹ across iterations; within a stratum it only
	// grows (see DESIGN.md on intra-stratum monotonicity). byTarget groups
	// the accumulated updates per target version; only targets with fresh
	// updates need their state recomputed in an iteration — everything a
	// state depends on (the copy source, the target's own update set) is
	// otherwise unchanged within the stratum.
	for _, ri := range ruleIdx {
		e.agg[ri].stratum = si + 1
	}
	// wantDelta: semi-naive iteration only pays for delta collection when
	// some rule in the stratum can actually consume a delta. Strata whose
	// rules have no delta-seedable literal (every body literal reads facts
	// frozen in-stratum) reach their fixpoint after one changing iteration,
	// so added-fact collection and bucketing are skipped entirely.
	wantDelta := false
	if e.opts.Strategy != Naive {
		for _, ri := range ruleIdx {
			if e.compiled != nil {
				if len(e.compiled.rules[ri].deltaKeys) > 0 {
					wantDelta = true
					break
				}
			} else if len(e.plans[ri].deltaPositions) > 0 {
				wantDelta = true
				break
			}
		}
	}
	// byTarget doubles as the fired set: an update is known iff it is
	// already in its target's list. Small lists (the overwhelming majority)
	// dedup by linear scan; once a target's list passes dedupSpill its
	// updates move to the spill map, so accumulator targets (recursive
	// closures collecting thousands of inserts on one version) keep O(1)
	// membership checks. This avoids hashing every emitted update — the
	// Update struct is large and hash-dominated — on the common path.
	// byTarget is sized lazily from the first iteration's emitted updates;
	// the bulk of a stratum's updates arrive in iteration 1, and presizing
	// avoids the incremental rehash-and-split cost on large runs.
	var byTarget map[term.GVID]*targetUpdates
	var spill map[Update]struct{}
	var delta []term.Fact

	for iter := 1; ; iter++ {
		if iter > e.opts.MaxIterations {
			return iter, &IterationLimitError{Stratum: si, Limit: e.opts.MaxIterations}
		}
		var dirty []*targetUpdates
		var tuSlab []targetUpdates
		fresh := 0
		// freshByRule feeds the per-rule iteration spans; only kept when
		// tracing so the hot path stays map-free.
		var freshByRule map[int]int
		if stratumSpan != nil {
			freshByRule = make(map[int]int)
		}
		collect := func(ri int) func(Update) {
			return func(u Update) {
				w := u.Target()
				tu := byTarget[w]
				if tu == nil {
					// Pointers into tuSlab stay valid: the slab never grows
					// past its capacity (one new target per fresh update at
					// most), and superseded slabs are kept alive by the
					// byTarget entries pointing into them.
					if len(tuSlab) < cap(tuSlab) {
						tuSlab = tuSlab[:len(tuSlab)+1]
						tu = &tuSlab[len(tuSlab)-1]
					} else {
						tu = &targetUpdates{}
					}
					tu.w = w
					tu.ups = tu.ups0[:0:1]
					byTarget[w] = tu
				}
				list := tu.ups
				if len(list) <= dedupSpill {
					for i := range list {
						if list[i] == u {
							return
						}
					}
					if len(list) == dedupSpill {
						if spill == nil {
							spill = make(map[Update]struct{}, 4*dedupSpill)
						}
						for i := range list {
							spill[list[i]] = struct{}{}
						}
						spill[u] = struct{}{}
					}
				} else {
					if _, known := spill[u]; known {
						return
					}
					spill[u] = struct{}{}
				}
				tu.ups = append(list, u)
				if tu.mark != iter {
					tu.mark = iter
					dirty = append(dirty, tu)
				}
				fresh++
				e.fired++
				e.agg[ri].fired++
				if freshByRule != nil {
					freshByRule[ri]++
				}
				if e.opts.Trace {
					e.trace = append(e.trace, TraceEvent{
						Stratum: si, Iteration: iter,
						Rule:   e.labels[ri],
						Update: u,
					})
				}
			}
		}

		var tasks []fireTask
		lastRI := -1
		addTask := func(t fireTask) {
			tasks = append(tasks, t)
			if t.ri != lastRI {
				e.agg[t.ri].iterations++
				lastRI = t.ri
			}
		}
		if iter == 1 || e.opts.Strategy == Naive {
			for _, ri := range ruleIdx {
				addTask(fireTask{ri: ri, pos: -1})
			}
		} else {
			if len(delta) == 0 {
				return iter - 1, nil
			}
			if e.compiled != nil {
				// One task per delta plan variant whose (path, method)
				// bucket received facts; pos indexes the variant.
				for _, ri := range ruleIdx {
					cr := e.compiled.rules[ri]
					for vi, key := range cr.deltaKeys {
						if len(e.buckets[key]) > 0 {
							addTask(fireTask{ri: ri, pos: vi})
						}
					}
				}
			} else {
				for _, ri := range ruleIdx {
					for _, pos := range e.plans[ri].deltaPositions {
						addTask(fireTask{ri: ri, pos: pos})
					}
				}
			}
		}

		var itSpan *obs.Span
		if stratumSpan != nil {
			itSpan = stratumSpan.StartChild("iteration " + strconv.Itoa(iter))
			itSpan.SetInt("delta_in", int64(len(delta)))
		}
		// Sequential, untraced runs sink fired updates straight into collect,
		// skipping the per-task result buffers and the merge pass; parallel
		// and traced runs buffer per task so merge order (and span
		// accounting) stays deterministic. The accumulators are presized
		// from the planner's row estimates in direct mode and from the exact
		// emitted count in buffered mode; a low estimate only costs append
		// growth (collect never grows tuSlab past capacity — overflow
		// targets allocate individually).
		var results [][]Update
		var stats []fireStat
		var err error
		if e.opts.Parallelism < 2 && stratumSpan == nil {
			est := 0
			if e.compiled != nil {
				for _, t := range tasks {
					cr := e.compiled.rules[t.ri]
					if t.pos >= 0 {
						est += len(e.buckets[cr.deltaKeys[t.pos]])
						continue
					}
					for si := range cr.steps {
						if r := cr.steps[si].estRows; r > 0 {
							est += r
							break
						}
					}
				}
				if est > 1<<17 {
					est = 1 << 17
				}
			}
			dirty = make([]*targetUpdates, 0, est)
			tuSlab = make([]targetUpdates, 0, est)
			if byTarget == nil {
				byTarget = make(map[term.GVID]*targetUpdates, est)
			}
			_, stats, err = e.collectFirings(si, tasks, delta, func(ti int) func(Update) {
				ri := tasks[ti].ri
				inner := collect(ri)
				return func(u Update) {
					e.agg[ri].emitted++
					inner(u)
				}
			})
		} else {
			results, stats, err = e.collectFirings(si, tasks, delta, nil)
		}
		if err != nil {
			itSpan.End()
			return iter, err
		}
		if results != nil {
			total := 0
			for _, ups := range results {
				total += len(ups)
			}
			dirty = make([]*targetUpdates, 0, total)
			tuSlab = make([]targetUpdates, 0, total)
			if byTarget == nil {
				byTarget = make(map[term.GVID]*targetUpdates, total)
			}
			for ti, ups := range results {
				sink := collect(tasks[ti].ri)
				for _, u := range ups {
					sink(u)
				}
				e.agg[tasks[ti].ri].emitted += len(ups)
			}
		}
		for ti := range tasks {
			e.agg[tasks[ti].ri].matched += stats[ti].matched
			e.agg[tasks[ti].ri].time += stats[ti].dur
		}
		if itSpan != nil {
			e.addRuleSpans(itSpan, tasks, results, stats, freshByRule)
			itSpan.SetInt("fresh_updates", int64(fresh))
		}

		if fresh == 0 {
			itSpan.End()
			return iter, nil
		}
		changed, added, err := e.applyTargets(dirty, wantDelta)
		if itSpan != nil {
			itSpan.SetInt("targets", int64(len(dirty)))
			itSpan.SetInt("facts_added", int64(len(added)))
			itSpan.End()
		}
		if err != nil {
			return iter, err
		}
		if !changed {
			return iter, nil
		}
		if !wantDelta && e.opts.Strategy != Naive {
			// No rule here can fire from in-stratum additions, so a changing
			// iteration is already the fixpoint.
			return iter, nil
		}
		delta = added
		if e.compiled != nil {
			e.buckets = bucketDelta(added)
		}
	}
}

// bucketDelta groups an iteration's added facts by (path, method), the
// granularity compiled delta variants join at.
func bucketDelta(facts []term.Fact) map[pmKey][]term.Fact {
	out := make(map[pmKey][]term.Fact, 8)
	for _, f := range facts {
		k := pmKey{Path: f.V.Path, Method: f.Method}
		out[k] = append(out[k], f)
	}
	return out
}

// addRuleSpans attaches one child span per rule evaluated in the
// iteration, aggregating its step-1 tasks (a rule can run several delta
// tasks): earliest start, summed duration, match/emit/fired counts.
func (e *engine) addRuleSpans(itSpan *obs.Span, tasks []fireTask, results [][]Update, stats []fireStat, freshByRule map[int]int) {
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
		a.emitted += len(results[ti])
	}
	for _, ri := range order {
		a := byRule[ri]
		rs := itSpan.AddChild("rule "+e.labels[ri], a.start, a.dur)
		rs.SetInt("matched", a.matched)
		rs.SetInt("emitted", int64(a.emitted))
		rs.SetInt("fired", int64(freshByRule[ri]))
	}
}

// applyTargets performs steps 2 and 3 of T_P for the given dirty target
// versions, replacing each with the state computed from its full
// accumulated update set. It returns whether the base changed and, when
// collectAdded is set, which facts were added (for semi-naive deltas).
func (e *engine) applyTargets(dirty []*targetUpdates, collectAdded bool) (bool, []term.Fact, error) {
	slices.SortFunc(dirty, func(a, b *targetUpdates) int { return a.w.Compare(b.w) })
	if len(e.deepest) == 0 {
		// One entry per touched object at most; sized here, not from the
		// input base, so an update pays for what it touches.
		e.deepest = make(map[term.OID]term.GVID, len(dirty))
	}

	// Checks first (sequential, deterministic error reporting) ...
	for _, tu := range dirty {
		w := tu.w
		if len(tu.ups) > 1 {
			ups := tu.ups
			slices.SortFunc(ups, func(a, b Update) int { return a.compare(b) })
		}
		if e.opts.ForbidNewObjects && !e.base.Exists(w) {
			v := term.GVID{Object: w.Object, Path: w.Path[:w.Path.Len()-1]}
			if _, ok := e.base.VStar(v); !ok {
				return false, nil, &NewObjectError{Update: tu.ups[0]}
			}
		}
		// Version-linearity, checked online as Section 5 suggests.
		d, ok := e.deepest[w.Object]
		if !ok {
			d = term.GVID{Object: w.Object}
		}
		if !w.Comparable(d) {
			return false, nil, &LinearityError{Object: w.Object, A: d, B: w}
		}
		if w.Path.Len() > d.Path.Len() {
			e.deepest[w.Object] = w
		}
	}

	// ... then state computation (read-only, parallelizable) ...
	states := e.computeStates(dirty)

	// ... then mutation, sequentially.
	e.base.GrowStates(len(dirty))
	changed := false
	var added []term.Fact
	for i, tu := range dirty {
		w := tu.w
		oldSt := e.base.StateOf(w)
		newSt := states[i]
		if oldSt == nil && newSt != nil && !newSt.Empty() {
			// The common case — a version derived for the first time this
			// iteration — skips SetState's redundant lookup/equality work.
			e.base.SetStateFresh(w, newSt)
		} else if !e.base.SetState(w, newSt) {
			continue
		}
		changed = true
		if !collectAdded {
			continue
		}
		newSt.ForEach(func(k term.MethodKey, r term.OID) {
			if oldSt == nil || !oldSt.Has(k, r) {
				added = append(added, term.Fact{V: w, Method: k.Method, Args: k.Args, Result: r})
			}
		})
	}
	return changed, added, nil
}

// finalize is the copy phase of Section 5 as a delta over the input base:
// e.deepest holds every object whose final version is not simply the
// object as the input has it (seeded by seedDeepest, maintained online by
// applyTargets), so only those are copied; an object whose final state
// turns out equal to its old one is left alone. Derived versions are never
// empty — the exists method is forbidden in rule heads, so every state
// keeps at least its exists facts — hence every deepest version is present
// in the base. The result equals Finalize(e.base); everything untouched is
// shared with the input (see objectbase.Derive).
func (e *engine) finalize() (*objectbase.Base, []objectbase.Change) {
	changes := make([]objectbase.Change, 0, len(e.deepest))
	for o, final := range e.deepest {
		obj := term.GVID{Object: o}
		old := e.p0.StateOf(obj)
		var ns *objectbase.State
		if st := e.base.StateOf(final); st != nil && !st.OnlyExists() {
			ns = st.CloneFinal(o)
			if old != nil && old.Equal(ns) {
				continue
			}
		} else if old == nil {
			continue
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
