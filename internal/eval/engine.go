package eval

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// engine carries the mutable evaluation state: what the run keeps (the
// overlay base, the per-rule accumulators) as its own fields, and the working
// memory no field of Result refers to in its scratch.
type engine struct {
	*scratch
	base  *objectbase.Base
	opts  Options
	fired int
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
}

// scratch is an evaluation's working memory: everything a run writes that is
// garbage the moment it returns. It outlives the run instead — Run takes the
// parked one (takeScratch), gives it back emptied (park), and the next run
// writes over the same storage. A run that finds none parked starts from the
// zero scratch, which is ready to use: there is one code path, and how old
// the storage is shows nowhere but in the allocation count.
//
// Nothing a run returns may point into it: Result.Trace holds copies of the
// updates (buildTrace), the errors carry values, result(P) is the overlay
// base, which is the run's own, and Changes is finalize's own slice.
type scratch struct {
	// objs is the one table of the objects the run touches: those the input
	// base lists as unsettled, and every object some fired update targets.
	// An object's record carries the path of its deepest version and the
	// updates fired on its versions (see touched); an object without an
	// entry is its own deepest version and has no updates. The final copy
	// visits exactly these entries. The records come from touchedRecs and
	// never move; the table is not sized from the base, so an apply pays for
	// what it touches.
	objs        map[term.OID]*touched
	touchedRecs slab[touched]
	// ups holds every fired update of the run, written once, in firing
	// order; targets every (stratum, target version) they were fired on, each
	// heading the list of its updates. Result.Trace is assembled from targets
	// at the end of Run.
	ups     slab[firedUpdate]
	targets slab[targetUpdates]
	// methods numbers the methods updates were fired on, in order of first
	// use: a fired update names its method by position here. A program fires
	// on a handful, so the table is searched linearly, and the names are
	// mostly the compiled heads' own strings, where the comparison ends at
	// the pointer. It is the run's and not the compiled program's because a
	// del[v].* head takes its methods from the facts of v*, and because the
	// compiled program is shared, immutable, with the evaluations beside
	// this one.
	methods []string
	gone    []keyResult // extend's scratch
	// spill is the membership table of the update lists past dedupSpill (see
	// collect). Its keys name their target, a record of one stratum, so the
	// strata of a run share it without meeting each other's entries.
	spill map[spillKey]struct{}
	// dirty lists the targets that received updates in the current
	// iteration; tasks and stats are its step-1 work and what that cost. One
	// stratum runs at a time, so one of each serves them all.
	dirty []*targetUpdates
	tasks []fireTask
	stats []fireStat
	// buckets is the storage of the delta buckets: a stratum takes as many
	// as it has delta keys, from the front (see bucket), and bucketsUsed is
	// the most one stratum of the run took.
	buckets     []*bucket
	bucketsUsed int
	// objsMost and spillMost are the most entries the two maps have held
	// since they were made (see emptied).
	objsMost, spillMost int
}

// parked is the one process-wide slot a finished run leaves its scratch in
// for the next. It holds the scratch strongly while runs keep coming: used
// says a run has parked in the slot since the last collection, and the sweep
// that follows every collection drops a scratch that no run has used since
// the one before. The mark is set when a run parks, not when it takes: a run
// in flight across a sweep has used the slot after it. A busy process never
// buys its working memory twice; an idle one drops it at its second
// collection and frees it at its third. Every repository of a process shares
// the one. (A sync.Pool would keep one per P, each counted live at every
// mark; a weak pointer lets every collection take it, so that what an apply
// allocates follows the collector's timing. DESIGN.md §4 has the numbers.)
// The mutex is a leaf: it is held for a few assignments and no call is made
// under it.
var parked struct {
	mu   sync.Mutex
	sc   *scratch
	used bool
}

func init() { armSweep() }

// sweepSentinel is what a sweep waits on: nothing points to it, so the next
// collection finds it unreachable and runs its cleanup. It holds a pointer so
// that the allocator never batches it with a live object.
type sweepSentinel struct{ _ *byte }

// armSweep registers the sweep that follows the next collection.
func armSweep() { runtime.AddCleanup(new(sweepSentinel), sweep, struct{}{}) }

// sweep runs once per collection, on the cleanup goroutine: it re-arms itself
// for the next one, drops the parked scratch unless a run has parked in the
// slot since the last sweep, and clears the mark.
func sweep(struct{}) {
	armSweep()
	parked.mu.Lock()
	if !parked.used {
		parked.sc = nil
	}
	parked.used = false
	parked.mu.Unlock()
}

// takeScratch empties the slot and returns what it held, or a new scratch
// when it held nothing (no run has parked one, a run beside this one has
// taken it, or the sweep has dropped it). The run owns what it gets: runs
// beside each other never share one.
func takeScratch() *scratch {
	parked.mu.Lock()
	sc := parked.sc
	parked.sc = nil
	parked.mu.Unlock()
	if sc == nil {
		sc = new(scratch)
	}
	return sc
}

// park empties the scratch and leaves it in the slot, in place of whatever
// a run beside this one has left there, and marks the slot used.
func (sc *scratch) park() {
	sc.empty()
	parked.mu.Lock()
	parked.sc, parked.used = sc, true
	parked.mu.Unlock()
}

// ScratchHeld reports whether the slot holds a finished run's working memory
// for the next run: tests poll it to wait for an idle process to let go.
func ScratchHeld() bool {
	parked.mu.Lock()
	defer parked.mu.Unlock()
	return parked.sc != nil
}

// empty makes the scratch what the next run expects — every value a slab
// hands out zero, every map and slice empty — and leaves nothing of the
// finished run reachable through it: the states its targets held, the
// interned terms of its log, the strings of its program.
//
// What stays allocated follows this run, not the largest the process has
// seen: a slab keeps the chunks the run reached (slab.reset), a map that
// the run filled to less than an eighth of the most it has held is dropped
// (emptied), so is a slice the run used to less than an eighth of its
// capacity (trimmed), and so are the buckets no stratum took.
func (sc *scratch) empty() {
	sc.ups.reset()
	sc.targets.reset()
	sc.touchedRecs.reset()
	sc.objs = emptied(sc.objs, &sc.objsMost)
	sc.spill = emptied(sc.spill, &sc.spillMost)
	sc.methods = trimmed(sc.methods)
	sc.gone = trimmed(sc.gone)
	sc.dirty = trimmed(sc.dirty)
	sc.tasks = trimmed(sc.tasks)
	sc.stats = trimmed(sc.stats)
	clear(sc.buckets[sc.bucketsUsed:])
	sc.buckets, sc.bucketsUsed = sc.buckets[:sc.bucketsUsed], 0
	for _, b := range sc.buckets {
		*b = bucket{facts: trimmed(b.facts), whole: trimmed(b.whole)}
	}
}

// trimmed returns s with no elements and nothing left in its backing array,
// or nil when the run used less than an eighth of its capacity. What the run
// used reaches to the last element that is not zero: a run truncates these
// slices without clearing them, and every run leaves the whole backing array
// zero, so past what the run wrote there is nothing. Clearing stops there
// too; it would cost the capacity, not what the run used.
func trimmed[T comparable](s []T) []T {
	s = s[:cap(s)]
	var zero T
	n := len(s)
	for n > 0 && s[n-1] == zero {
		n--
	}
	if 8*n < len(s) {
		return nil
	}
	clear(s[:n])
	return s[:0]
}

// emptied returns m without its entries, or nil — the next run makes a new
// one — when the run filled it to less than an eighth of *most, the most it
// has held: a Go map does not shrink, and clearing one costs what it once
// held, not what the run put in.
func emptied[K comparable, V any](m map[K]V, most *int) map[K]V {
	n := len(m)
	if 8*n < *most {
		*most = 0
		return nil
	}
	*most = max(*most, n)
	clear(m)
	return m
}

// methodNumber returns the run's number for the named method, or -1 when no
// update has been fired on it.
func (e *engine) methodNumber(name string) int32 {
	for i, m := range e.methods {
		if m == name {
			return int32(i)
		}
	}
	return -1
}

// method returns the run's number for the named method, numbering it on
// first use.
func (e *engine) method(name string) int32 {
	m := e.methodNumber(name)
	if m < 0 {
		m = int32(len(e.methods))
		e.methods = append(e.methods, name)
	}
	return m
}

// up returns the fired update at the 1-based position pos of the log, nil
// for position zero (the end of every list).
func (e *engine) up(pos int32) *firedUpdate {
	if pos == 0 {
		return nil
	}
	return e.ups.at(int(pos) - 1)
}

// newResult returns the new result of the modify at position pos: the r of
// the slot after it (see firedUpdate).
func (e *engine) newResult(pos int32) term.OID { return e.ups.at(int(pos)).r }

// key rebuilds the method key the update was fired with.
func (e *engine) key(f *firedUpdate) term.MethodKey {
	return term.MethodKey{Method: e.methods[f.method], Args: f.args}
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
// and nothing is reserved on an estimate. The geometry is fixed, so the i-th
// value handed out is found again from i alone (at): a list through a slab
// links 4-byte positions instead of pointers. A slab that has been reset
// hands out the same values again, from the chunks it has before it buys
// another.
type slab[T any] struct {
	chunks [][]T // each as long as what it has handed out
	cur    int   // the chunk being filled: those before it are full
	n      int   // values handed out
}

// The first slabSmall chunks hold 2, 4, …, slabChunk/2 entries — slabHead
// together — and every later one slabChunk.
const (
	slabShift = 9
	slabChunk = 1 << slabShift
	slabSmall = slabShift - 1
	slabHead  = slabChunk - 2
)

func (s *slab[T]) next() *T {
	if s.cur == len(s.chunks) {
		size := slabChunk
		if s.cur < slabSmall {
			size = 2 << s.cur
		}
		s.chunks = append(s.chunks, make([]T, 0, size))
	}
	c := &s.chunks[s.cur]
	*c = (*c)[:len(*c)+1]
	if len(*c) == cap(*c) {
		s.cur++
	}
	s.n++
	return &(*c)[len(*c)-1]
}

// reset takes back everything handed out, zeroed, and lets go of the chunks
// that were not reached since the last reset: what the slab keeps is what
// its last use needed.
func (s *slab[T]) reset() {
	reached := s.cur
	if reached < len(s.chunks) && len(s.chunks[reached]) > 0 {
		reached++
	}
	for i, c := range s.chunks[:reached] {
		clear(c)
		s.chunks[i] = c[:0]
	}
	clear(s.chunks[reached:])
	s.chunks, s.cur, s.n = s.chunks[:reached], 0, 0
}

// at returns the value next handed out as its (i+1)-th. Chunk k of the
// doubling head starts at 2^(k+1) - 2, so the bit length of i+2 names the
// chunk; past the head it is a shift and a mask.
func (s *slab[T]) at(i int) *T {
	if i < slabHead {
		k := bits.Len(uint(i+2)) - 2
		return &s.chunks[k][i+2-(2<<k)]
	}
	i -= slabHead
	return &s.chunks[slabSmall+(i>>slabShift)][i&(slabChunk-1)]
}

// touched is the run's record of one object: the path of its deepest
// version so far (version-linearity makes every other version of the object
// a prefix of it) and the targets updates were fired on, newest first,
// linked through targetUpdates.older. Strata run in order, so the targets of
// the current stratum head the list, and linearity keeps it to a handful.
type touched struct {
	deepest term.Path
	updates *targetUpdates
}

// touch returns o's record, entering it on first sight: the object is then
// its own deepest version.
func (e *engine) touch(o term.OID) *touched {
	obj := e.objs[o]
	if obj == nil {
		obj = e.touchedRecs.next()
		if e.objs == nil {
			e.objs = make(map[term.OID]*touched)
		}
		e.objs[o] = obj
	}
	return obj
}

// firedUpdate is one fired update, 48 bytes of the log engine.ups: the
// arguments and the result it was fired with, its method as a number of the
// run's (engine.methods), the rule and iteration that derived it first, and
// the position of its target's next update (1-based, zero at the end). The
// version and the kind are the target's, which is where every list is
// reached from (see update). A modify carries a second result: the slot
// after its entry holds it in r and nothing else, so that inserts and
// deletes — all but a few of the updates of most runs — do not carry an
// empty one. All updates of a target have one kind, so the target says
// which form its list has.
type firedUpdate struct {
	r                        term.OID
	args                     term.Args
	next, method, rule, iter int32
}

// update rebuilds the Update the entry at position pos was fired as on the
// target tu.
func (e *engine) update(tu *targetUpdates, pos int32) Update {
	f := e.up(pos)
	path, kind := tu.w.Path.Pop()
	u := Update{Kind: kind, V: term.GVID{Object: tu.w.Object, Path: path}, Key: e.key(f), R: f.r}
	if kind == term.Mod {
		u.R2 = e.newResult(pos)
	}
	return u
}

// targetUpdates is one target version w within a stratum: the deduplicated
// updates fired on it, as a list through engine.ups in firing order, and
// the state they have been applied to. This is step 2 of T_P with the
// paper's footnote 4 taken literally: a version that is only relevant
// shares the frozen state of v* (or, when w is already active, of w
// itself) by pointer; the first update that changes anything copies it,
// once, and from then on w is extended in place with the updates each
// iteration adds. All updates of one target have the same kind and version:
// w is kind(version). 96 bytes: the pointers first, then the five int32s and
// the two bools together — an int32 or a bool between two pointers costs a
// word of padding each time.
type targetUpdates struct {
	w term.GVID
	// obj is the record of w's object, older the object's previous target
	// (see touched).
	obj   *touched
	older *targetUpdates
	// st is w's state; nil until the target's first applyTargets. owned
	// says it is a private copy, free to edit. appears marks a target the
	// base does not hold yet (installed by appear); prev is then the state w
	// had without being active — nil but for hand-written input versions
	// that lack the exists method.
	st, prev *objectbase.State
	// first and last are the ends of the list, fresh its first update not
	// yet applied to st: positions in engine.ups, zero for none.
	first, last, fresh int32
	stratum            int32
	n                  int32 // list length
	owned              bool
	appears            bool
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
	sp.SetAttr("plan", planAttr)
	res := &Result{Assignment: assignment, Plan: planAttr, Plans: compiled}
	res.Stats.Stratify = stratifyDur
	// The evaluation writes into the scratch the last one parked and parks it
	// again once nothing reads it any more — after buildTrace and ruleStats,
	// on a refusal as on a result. A panic passes the park by: a scratch
	// abandoned half-way is in no state to hand on, and the collector has it.
	e := newEngine(ob, p, compiled, opts, takeScratch())
	err = e.evaluate(res, evalStart)
	e.park()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// evaluate runs the strata of res.Assignment in order and the copy phase
// after them, and fills in res.
func (e *engine) evaluate(res *Result, evalStart time.Time) error {
	sp := e.opts.Span
	if err := e.seedDeepest(); err != nil {
		return err
	}
	for si, stratum := range res.Assignment.Strata {
		stratumStart := time.Now()
		var stratumSpan *obs.Span
		if sp != nil {
			stratumSpan = sp.StartChild("stratum " + strconv.Itoa(si+1))
			stratumSpan.SetInt("rules", int64(len(stratum)))
		}
		iters, err := e.newStratumRun(si, stratum, stratumSpan).run()
		stratumSpan.SetInt("iterations", int64(iters))
		stratumSpan.End()
		if err != nil {
			return err
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
	copySpan.SetInt("objects", int64(len(e.objs)))
	copySpan.SetInt("changed", int64(len(res.Changes)))
	copySpan.End()
	res.Stats.Copy = time.Since(copyStart)
	res.Stats.Eval = time.Since(evalStart)
	res.Fired = e.fired
	res.RuleStats = e.ruleStats()
	res.Trace = e.buildTrace()
	return nil
}

// newEngine sets up the evaluation of p, compiled, over the frozen base ob,
// with sc, empty, as its working memory.
func newEngine(ob *objectbase.Base, p *term.Program, compiled *CompiledProgram, opts Options, sc *scratch) *engine {
	e := &engine{
		scratch:  sc,
		base:     objectbase.Overlay(ob),
		p0:       ob,
		opts:     opts,
		labels:   p.RuleLabels(),
		agg:      make([]ruleAgg, len(p.Rules)),
		compiled: compiled,
	}
	e.x = newExecutor(e.base)
	return e
}

// buildTrace assembles Result.Trace, exactly sized, from the run's update
// log, target by target. Candidate enumeration follows map order, so firing
// order within an iteration is arbitrary; the events are sorted into a
// canonical order so runs are reproducible.
func (e *engine) buildTrace() []TraceEvent {
	if !e.opts.Trace || e.fired == 0 {
		return nil
	}
	trace := make([]TraceEvent, 0, e.fired)
	for _, chunk := range e.targets.chunks {
		for i := range chunk {
			tu := &chunk[i]
			for pos := tu.first; pos != 0; {
				f := e.up(pos)
				trace = append(trace, TraceEvent{
					Stratum: int(tu.stratum), Iteration: int(f.iter),
					Rule:   e.labels[f.rule],
					Update: e.update(tu, pos),
				})
				pos = f.next
			}
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

// seedDeepest enters the input base's unsettled versions into the table of
// touched objects and verifies the input itself is version-linear. Settled
// objects need no entry, and an updated base ob' lists nothing, so the
// seeding costs nothing on a repository head. A single unsorted pass
// suffices: while no violation has been seen, every version of an object is
// a prefix of the running deepest (or extends it), so any version
// incomparable with some earlier one is also incomparable with the running
// deepest and is caught when it arrives. (The object itself is a prefix of
// all its versions and cannot take part in a violation.)
func (e *engine) seedDeepest() error {
	for _, v := range e.p0.Unsettled() {
		if err := e.touch(v.Object).deepen(v); err != nil {
			return err
		}
	}
	return nil
}

// deepen holds version w of the object against its deepest version so far
// — the online version-linearity check Section 5 suggests — and makes w
// the deepest when it extends it.
func (obj *touched) deepen(w term.GVID) error {
	d := obj.deepest
	if !w.Path.HasPrefix(d) && !d.HasPrefix(w.Path) {
		return &LinearityError{Object: w.Object, A: term.GVID{Object: w.Object, Path: d}, B: w}
	}
	if w.Path.Len() > d.Len() {
		obj.deepest = w.Path
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

// deltaFact is one fact an iteration added to a version that existed
// before it, as a delta join reads it: the path and the method are the
// bucket's.
type deltaFact struct {
	object term.OID
	args   term.Args
	result term.OID
}

// wholeVersion is a version that appeared in the last iteration, entered
// into a bucket by reference: every fact of it is new to the base, so the
// delta it contributes is its state, and the join matches the seed's
// application on that state (executor.matchOn) instead of on a copy of its
// facts.
type wholeVersion struct {
	object term.OID
	st     *objectbase.State
}

// bucket holds what the last iteration added under one (path, method): the
// semi-naive delta, as the compiled delta variants read it — the versions
// that appeared (whole) and the facts added to versions that were there
// (facts). A whole entry stays valid until the bucket is reset: nothing
// edits a state between one applyTargets and the end of the next step 1, and
// applyTargets resets every bucket, dropping the state pointers, before it
// edits anything. The storage is reused from iteration to iteration; room
// and wholeRoom are the lengths the coming fill will reach, counted before
// anything is edited (see reserve). The storage is the scratch's: a stratum
// takes its buckets from scratch.buckets and the next one, of this run or a
// later one, fills the same slices.
type bucket struct {
	method    string
	facts     []deltaFact
	whole     []wholeVersion
	room      int
	wholeRoom int
}

// empty reports whether the last iteration left nothing to join against.
func (b *bucket) empty() bool { return len(b.facts) == 0 && len(b.whole) == 0 }

// reset empties the bucket for the next fill. What the last fill left in the
// backing arrays stays until the run parks its scratch (scratch.empty): the
// states it points to are result(P)'s, alive until the run returns.
func (b *bucket) reset() {
	b.facts, b.whole, b.room, b.wholeRoom = b.facts[:0], b.whole[:0], 0, 0
}

// bucket returns the i-th delta bucket of the stratum that asks, empty and
// filed under method.
func (sc *scratch) bucket(i int, method string) *bucket {
	if i == len(sc.buckets) {
		sc.buckets = append(sc.buckets, new(bucket))
	}
	sc.bucketsUsed = max(sc.bucketsUsed, i+1)
	b := sc.buckets[i]
	b.reset()
	b.method = method
	return b
}

// spillKey identifies a fired update within a stratum: its target and what
// it does there, the method by its number (72 bytes).
type spillKey struct {
	tu     *targetUpdates
	r, r2  term.OID
	args   term.Args
	method int32
}

// stratumRun is the working state of one stratum's fixpoint.
type stratumRun struct {
	e        *engine
	si, iter int
	rules    []int
	span     *obs.Span // nil unless tracing
	// added counts the facts the previous iteration added.
	added int
	// The updates fired so far (T¹ accumulated; within a stratum it only
	// grows, see DESIGN.md on intra-stratum monotonicity) are grouped per
	// target version in the engine's table of touched objects, which doubles
	// as the fired set: an update is known iff it is in its target's list.
	// Small lists (the overwhelming majority) dedup by linear scan; once a
	// list passes dedupSpill its updates move to the spill map, so
	// accumulator targets (recursive closures collecting thousands of inserts
	// on one version) keep O(1) membership checks without hashing every
	// emitted update — the key is large and hash-dominated — on the common
	// path. (The map is the scratch's spill.)
	//
	// Only the targets that received updates this iteration (the scratch's
	// dirty) change — everything else a state depends on (its source, its own
	// update list) is fixed within the stratum. fresh counts the updates.
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

// target returns the stratum's record of the version u produces, entering
// it on the first update fired on that version: one lookup in the table of
// touched objects, then the object's targets of this stratum, which head
// its list.
func (s *stratumRun) target(u Update) *targetUpdates {
	obj := s.e.touch(u.V.Object)
	inner := u.V.Path.Len()
	for tu := obj.updates; tu != nil && int(tu.stratum) == s.si; tu = tu.older {
		if p := tu.w.Path; p.Len() == inner+1 && p.Outer() == u.Kind && p[:inner] == u.V.Path {
			return tu
		}
	}
	tu := s.e.targets.next()
	tu.w, tu.stratum = u.Target(), int32(s.si)
	tu.obj, tu.older, obj.updates = obj, obj.updates, tu
	return tu
}

// collect is the one sink of step 1: it enters an emitted update into its
// target's list unless it is known already. Two updates on one target are
// the same when method number, arguments and result agree — and, on a modify
// target, the new result in the slot after the entry.
func (s *stratumRun) collect(ri int, u Update) {
	e := s.e
	tu := s.target(u)
	m, mod := e.method(u.Key.Method), u.Kind == term.Mod
	if tu.n <= dedupSpill {
		for pos := tu.first; pos != 0; {
			f := e.up(pos)
			if f.method == m && f.args == u.Key.Args && f.r == u.R && (!mod || e.newResult(pos) == u.R2) {
				return
			}
			pos = f.next
		}
		if tu.n == dedupSpill {
			if e.spill == nil {
				e.spill = make(map[spillKey]struct{}, 4*dedupSpill)
			}
			for pos := tu.first; pos != 0; {
				f := e.up(pos)
				k := spillKey{tu: tu, r: f.r, args: f.args, method: f.method}
				if mod {
					k.r2 = e.newResult(pos)
				}
				e.spill[k] = struct{}{}
				pos = f.next
			}
			e.spill[spillKey{tu, u.R, u.R2, u.Key.Args, m}] = struct{}{}
		}
	} else {
		k := spillKey{tu, u.R, u.R2, u.Key.Args, m}
		if _, known := e.spill[k]; known {
			return
		}
		e.spill[k] = struct{}{}
	}
	*e.ups.next() = firedUpdate{r: u.R, args: u.Key.Args, method: m, rule: int32(ri), iter: int32(s.iter)}
	pos := int32(e.ups.n)
	if mod {
		e.ups.next().r = u.R2
	}
	if tu.last == 0 {
		tu.first = pos
	} else {
		e.up(tu.last).next = pos
	}
	tu.last = pos
	tu.n++
	if tu.fresh == 0 {
		tu.fresh = pos
		e.dirty = append(e.dirty, tu)
	}
	s.fresh++
	e.fired++
	e.agg[ri].fired++
	if s.freshByRule != nil {
		s.freshByRule[ri]++
	}
}

// newStratumRun sets up the fixpoint of stratum si over the given rules,
// recording iteration spans under stratumSpan when tracing.
func (e *engine) newStratumRun(si int, ruleIdx []int, stratumSpan *obs.Span) *stratumRun {
	s := &stratumRun{e: e, si: si, rules: ruleIdx, span: stratumSpan}
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
				b := e.bucket(len(s.buckets), key.Method)
				s.buckets[key] = b
				s.byPath[key.Path] = append(s.byPath[key.Path], b)
			}
		}
	}
	return s
}

// run iterates T_P until the stratum's fixpoint and returns the number of
// iterations it took.
func (s *stratumRun) run() (int, error) {
	for {
		if n, err := s.iterate(); n > 0 {
			return n, err
		}
	}
}

// iterate applies T_P once more. It returns 0 to go on, or — at the
// fixpoint and on an error — the number of iterations the stratum took.
func (s *stratumRun) iterate() (int, error) {
	e := s.e
	s.iter++
	iter := s.iter
	if iter > e.opts.MaxIterations {
		return iter, &IterationLimitError{Stratum: s.si, Limit: e.opts.MaxIterations}
	}
	tasks, stats := e.tasks[:0], e.stats[:0]
	if iter == 1 {
		for _, ri := range s.rules {
			tasks = append(tasks, fireTask{ri: ri, pos: -1})
		}
	} else {
		if s.added == 0 {
			return iter - 1, nil
		}
		// One task per delta seed whose bucket received something.
		for _, ri := range s.rules {
			for i, key := range e.compiled.rules[ri].deltaKeys {
				if b := s.buckets[key]; !b.empty() {
					tasks = append(tasks, fireTask{ri: ri, pos: i, delta: b})
				}
			}
		}
	}

	var itSpan *obs.Span
	if s.span != nil {
		itSpan = s.span.StartChild("iteration " + strconv.Itoa(iter))
		itSpan.SetInt("delta_in", int64(s.added))
		clear(s.freshByRule)
	}
	s.fresh = 0
	for ti, t := range tasks {
		ri, emitted := t.ri, 0
		st, err := e.step1(s.si, t, func(u Update) error {
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
	e.tasks, e.stats = tasks, stats
	if itSpan != nil {
		e.addRuleSpans(itSpan, tasks, stats, s.freshByRule)
		itSpan.SetInt("fresh_updates", int64(s.fresh))
	}
	if s.fresh == 0 {
		itSpan.End()
		return iter, nil
	}
	targets := len(e.dirty)
	changed, added, err := s.applyTargets()
	s.added = added
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
	return 0, nil
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

// deltaSink receives the facts an iteration adds to one version that was
// there before it: it counts them all and files those some rule can be
// seeded from in their buckets.
type deltaSink struct {
	w  term.GVID
	bs []*bucket // the buckets of w's path
	n  int
}

func (d *deltaSink) add(k term.MethodKey, r term.OID) {
	d.n++
	for _, b := range d.bs {
		if b.method == k.Method {
			b.facts = append(b.facts, deltaFact{object: d.w.Object, args: k.Args, result: r})
		}
	}
}

// applyTargets performs steps 2 and 3 of T_P for the iteration's dirty
// targets: a target the base does not hold yet is installed, sharing its
// source's state; every target is then extended by its fresh updates. It
// returns whether the base changed and how many facts were added; what was
// added that some rule can be seeded from is left in the delta buckets.
func (s *stratumRun) applyTargets() (changed bool, added int, err error) {
	e, dirty := s.e, s.e.dirty
	slices.SortFunc(dirty, func(a, b *targetUpdates) int { return a.w.Compare(b.w) })
	for _, b := range s.buckets {
		b.reset()
	}

	// Checks first, in target order (deterministic error reporting), along
	// with where each new target starts from and how much room the delta
	// buckets need — no state is edited until every target has passed.
	for _, tu := range dirty {
		if tu.st == nil {
			if err := e.locate(tu); err != nil {
				return false, 0, err
			}
		}
		if err := tu.obj.deepen(tu.w); err != nil {
			return false, 0, err
		}
		for _, b := range s.byPath[tu.w.Path] {
			e.reserve(tu, b)
		}
	}
	for _, b := range s.buckets {
		b.facts = slices.Grow(b.facts, b.room)
		b.whole = slices.Grow(b.whole, b.wholeRoom)
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
		tu.fresh = 0
	}
	e.dirty = dirty[:0]
	return changed, added, nil
}

// reserve counts, before anything is edited, what the target's fresh
// updates will leave in bucket b of its path. Its fresh updates of the
// method each add a fact, except that an insert on a state the target still
// shares adds none when the state has it, and a delete never does. A target
// that appears with every fact new to the base takes one whole entry instead
// if it will carry the method; one with a prev may file any application of
// the method it starts with.
func (e *engine) reserve(tu *targetUpdates, b *bucket) {
	kind := tu.w.Path.Outer()
	adds := 0
	if m := e.methodNumber(b.method); m >= 0 && kind != term.Del {
		for f := e.up(tu.fresh); f != nil; f = e.up(f.next) {
			if f.method == m && !(kind == term.Ins && !tu.owned && tu.st.Has(e.key(f), f.r)) {
				adds++
			}
		}
	}
	if tu.appears && tu.prev == nil {
		if adds > 0 || tu.st.HasAnyOfMethod(b.method) {
			b.wholeRoom++
		}
		return
	}
	if tu.appears {
		tu.st.ForEachOfMethod(b.method, func(term.MethodKey, term.OID) { b.room++ })
	}
	b.room += adds
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
		first := e.update(tu, tu.first)
		for pos := e.up(tu.first).next; pos != 0; pos = e.up(pos).next {
			if u := e.update(tu, pos); u.compare(first) < 0 {
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
// updates. Without a prev every fact of the new version is new to the base:
// the version enters the buckets whose method it carries as it stands, by
// reference. With one (a hand-written input version that lacks exists) the
// facts prev did not have are filed one by one.
func (e *engine) appear(tu *targetUpdates, d *deltaSink) (changed bool) {
	prev := tu.prev
	tu.appears, tu.prev = false, nil
	var quiet deltaSink
	if prev == nil {
		// The common case skips SetState's lookup and equality work.
		e.base.SetStateFresh(tu.w, tu.st)
		e.extend(tu, &quiet)
		d.n += tu.st.Size()
		for _, b := range d.bs {
			if tu.st.HasAnyOfMethod(b.method) {
				b.whole = append(b.whole, wholeVersion{object: tu.w.Object, st: tu.st})
			}
		}
		return true
	}
	changed = e.base.SetState(tu.w, tu.st)
	changed = e.extend(tu, &quiet) || changed
	tu.st.ForEach(func(k term.MethodKey, r term.OID) {
		if !prev.Has(k, r) {
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
// update set to a fresh copy of the source would give. The log keeps a
// method as a number and a modify's new result in the slot after its entry:
// the method key is rebuilt from the run's table (engine.key), and a modify
// list is walked by position, which is what finds that slot.
func (e *engine) extend(tu *targetUpdates, d *deltaSink) (changed bool) {
	w := tu.w
	switch w.Path.Outer() {
	case term.Ins:
		for f := e.up(tu.fresh); f != nil; f = e.up(f.next) {
			key := e.key(f)
			if !tu.owned {
				if tu.st.Has(key, f.r) {
					continue
				}
				room := 1
				for g := e.up(f.next); g != nil; g = e.up(g.next) {
					room++
				}
				e.own(tu, room)
			}
			if e.base.AddTo(w, tu.st, key, f.r) {
				changed = true
				d.add(key, f.r)
			}
		}
	case term.Del:
		for f := e.up(tu.fresh); f != nil; f = e.up(f.next) {
			key := e.key(f)
			if !tu.owned {
				if !tu.st.Has(key, f.r) {
					continue
				}
				e.own(tu, 0)
			}
			changed = e.base.RemoveFrom(w, tu.st, key, f.r) || changed
		}
	case term.Mod:
		if !tu.owned {
			touches := false
			for pos := tu.fresh; pos != 0 && !touches; {
				f, r2 := e.up(pos), e.newResult(pos)
				key := e.key(f)
				touches = f.r != r2 && (tu.st.Has(key, f.r) || !tu.st.Has(key, r2))
				pos = f.next
			}
			if !touches {
				return false
			}
			e.own(tu, 0) // a modify puts in what it takes out
		}
		gone := e.gone[:0]
		for f := e.up(tu.fresh); f != nil; f = e.up(f.next) {
			if key := e.key(f); e.base.RemoveFrom(w, tu.st, key, f.r) {
				gone = append(gone, keyResult{key, f.r})
			}
		}
		lost := len(gone)
		for pos := tu.first; pos != 0; {
			f, r2 := e.up(pos), e.newResult(pos)
			pos = f.next
			key := e.key(f)
			if !e.base.AddTo(w, tu.st, key, r2) {
				continue
			}
			if slices.Contains(gone, keyResult{key, r2}) {
				lost-- // was there before the iteration: not new
			} else {
				changed = true
				d.add(key, r2)
			}
		}
		changed = changed || lost > 0
		e.gone = gone[:0]
	}
	return changed
}

// finalize is the copy phase of Section 5 as a delta over the input base:
// the table of touched objects holds every object whose final version is not
// simply the object as the input has it (seeded by seedDeepest, deepened
// online by applyTargets), so only those are visited, and an object is copied only
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
	left := len(e.objs)
	for o, rec := range e.objs {
		left--
		obj := term.GVID{Object: o}
		old := e.p0.StateOf(obj)
		var ns *objectbase.State
		if st := e.base.StateOf(term.GVID{Object: o, Path: rec.deepest}); st != nil && !st.OnlyExists() {
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
