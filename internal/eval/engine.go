package eval

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
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
	// Plans supplies pre-compiled match plans (Compile, PlanProgram). They
	// are used when they serve this program (CompiledProgram.Serves),
	// skipping compilation, and their stratification, when they carry one,
	// skips Stratify too; the repository caches them by program shape.
	Plans *CompiledProgram
	// Span, when non-nil, collects the evaluation as a span tree under it
	// (see internal/obs): stratify → stratum[i] → iteration[j] → rule[k],
	// with delta sizes, firing counts and wall time per node, and
	// runtime/pprof labels (stratum, rule) set around rule matching so CPU
	// profiles attribute to rules. Nil (the default) skips all of it.
	Span *obs.Span
	// DropResult says the caller will not read result(P): Result.Result is
	// nil, and the own layer of the overlay the fixpoint is built in is the
	// run's working memory (see scratch), emptied when the run ends. Final,
	// the counters and the trace are what they are without it. Changes is
	// the working memory's too, lent to the Result until Result.Release
	// gives it back. A commit sets it; whoever reads result(P) — history,
	// explain, the CLI — leaves it unset.
	DropResult bool
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
	// Work is what matching the rule and applying its updates did.
	Work
}

// Work counts what an evaluation did in units no host or firing order
// changes, so that two runs of one program on one base count the same.
// Step 1 counts the lookups and candidates of its matching on the account of
// the rule it matches; step 2 counts its work on a target on the account of
// the least rule among those that fired the target's fresh updates.
type Work struct {
	// Probes counts lookups: a version's state, an index probe, a test of a
	// fact, an existence or v* check, and one membership test of its
	// target's state per fresh update step 2 applies.
	Probes int `json:"probes"`
	// Scanned counts the candidates a scan visits: delta entries, index
	// hits, versions a scan of the version index hands out, the entries of
	// a state a match walks, and those a membership test of a state without
	// its position index reads.
	Scanned int `json:"scanned"`
	// Copied counts the states step 2 copies before it edits them.
	Copied int `json:"copied"`
	// Moved counts the entries step 2 appends to states: those a copy
	// carries over and those an update adds.
	Moved int `json:"moved"`
}

func (w *Work) add(v Work) {
	w.Probes += v.Probes
	w.Scanned += v.Scanned
	w.Copied += v.Copied
	w.Moved += v.Moved
}

// StratumTiming is the cost of one stratum's fixpoint.
type StratumTiming struct {
	// Duration is the wall-clock time the stratum's T_P iteration took.
	Duration time.Duration
	// Iterations is how many T_P applications it needed.
	Iterations int
}

// Stats carries per-stage timings across the layers of one apply. eval.Run
// fills Stratify, Strata and Copy; core.Apply adds Safety; the repository
// adds Queue, Eval, ConstraintCheck, Encode, CommitWait and Commit; the
// server adds Parse. The stage names follow the paper's pipeline: parse,
// safety, stratification, per-stratum T_P fixpoints, the copy phase
// building ob', and the apply phase committing the result. A stage that
// has a span under a trace is timed by an obs.Stage, so the span and the
// field hold the same two clock readings. Parse, Queue, Safety, Eval,
// ConstraintCheck and Commit do not overlap; what an apply spends outside
// them is the server's other_us.
type Stats struct {
	// Parse is the time spent parsing the program text (callers that start
	// from a parsed program leave it zero); the server counts reading the
	// request body in it.
	Parse time.Duration
	// Queue is the time the apply waited for the applies ahead of it to
	// evaluate and enqueue (repository layer: evaluation is serial). Zero,
	// give or take a lock acquisition, when nothing else is writing.
	Queue time.Duration
	// Safety is the safety check over every rule.
	Safety time.Duration
	// Stratify is the stratification of the program: zero when the run's
	// plans carried one, unless the repository planned them for this apply
	// (its plan cache missed), which then reports its own.
	Stratify time.Duration
	// Strata is the per-stratum fixpoint cost, in stratum order.
	Strata []StratumTiming
	// Copy is the copy phase: deriving the updated object base ob' from the
	// input base and the fixpoint's final versions.
	Copy time.Duration
	// Eval is the evaluation of an apply (repository layer): the plan-cache
	// lookup, the planning on a miss and eval.Run, stratify through copy,
	// less Safety, which runs inside it. Zero for an apply proved a no-op.
	Eval time.Duration
	// ConstraintCheck is the integrity-constraint verification of the
	// updated base (repository layer).
	ConstraintCheck time.Duration
	// Commit is the apply phase (repository layer), one stage from the
	// start of Encode to the end of CommitWait: Encode renders the program
	// and sums the digest of the state it leads to into the journal
	// record's bytes, and CommitWait is the time from joining a
	// group-commit batch until the batch is fsynced and the new head
	// published — queueing plus disk. The rest of Commit is the hand-off
	// between them.
	Commit     time.Duration
	Encode     time.Duration
	CommitWait time.Duration
	// Work is the evaluation's work, the sum of its rules' (RuleStat.Work).
	Work Work
}

// Result is the outcome of running an update-program.
type Result struct {
	// Result is result(P): the fixpoint object base holding every version
	// derived during evaluation. Nil when Options.DropResult was set.
	Result *objectbase.Base
	// Final is the updated object base ob' of Section 5, built from each
	// object's final version. It is frozen and shares the state of every
	// object the program did not change with the input base; Clone it to
	// obtain a mutable copy.
	Final *objectbase.Base
	// Changes lists the objects whose state differs between the input base
	// and Final, each with its old and new state — the update as a delta.
	// objectbase.DiffChanges turns it into the fact-level diff, and
	// storage.ChangesDigest into the digest's change; neither reorders it.
	// Under Options.DropResult it is the run's working memory, valid until
	// Release.
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
	// Options.Plans) or "compiled" (built this run, or by the repository
	// for this apply); "proved" on the result of an apply the repository
	// proved a no-op without running it, which carries no RuleStats, Trace
	// or stage timings of an evaluation.
	Plan string
	// Stats holds per-stage timings for this run; layers above eval add
	// their own stages (see Stats).
	Stats Stats
	// lent is the working memory Changes lives in, held from the run until
	// Release parks it; nil unless Options.DropResult was set.
	lent *scratch
}

// Release gives the working memory a run under Options.DropResult lent its
// Changes back to the next run, and sets Changes to nil: the caller is done
// with the changed states. It is the commit's to call, once the record is
// written; a result it is not called on leaves its working memory to the
// collector, and the next run buys its own. On any other result it does
// nothing.
func (res *Result) Release() {
	if res.lent == nil {
		return
	}
	res.lent.park()
	res.lent, res.Changes = nil, nil
}

// LinearityError reports a violation of version-linearity (Section 5): two
// versions of the same object that are not subterm-comparable. It names the
// least object that fails a check, and the least such pair of its versions
// (input versions and targets), A < B: no firing order changes the text.
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
// Options.ForbidNewObjects is set. It names the least update fired on a
// version with no state to start from, of the least object that fails a
// check; this reason comes before the object's linearity.
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
// Nothing a run returns may point into it once it is parked: Result.Trace
// holds copies of the updates (buildTrace), the errors carry values, and
// Changes is finalize's own slice. result(P) is the overlay base: its own
// layer is the run's when the caller keeps result(P), and the scratch's
// (layer) when it does not (Options.DropResult) — a run then returns no
// result(P), Final holds the overlay's states by pointer, never its maps,
// and Changes is the scratch's (changes), so the Result holds the scratch,
// unparked, until Release.
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
	// this one. keys holds, per method, the key last interned for it (see
	// intern).
	methods []string
	keys    []term.Key
	gone    []keyResult // extend's scratch
	// spill is the membership table of the update lists past dedupSpill (see
	// collect). Its keys name their target, a record of one stratum, so the
	// strata of a run share it without meeting each other's entries.
	spill map[spillKey]struct{}
	// dirty lists the targets that received updates in the current
	// iteration, tasks its step-1 work. One stratum runs at a time, so one of
	// each serves them all.
	dirty []*targetUpdates
	tasks []fireTask
	// buckets is the storage of the delta buckets: a stratum takes as many
	// as it has delta keys, from the front (see bucket), and bucketsUsed is
	// the most one stratum of the run took.
	buckets     []*bucket
	bucketsUsed int
	// layer holds the storage of the overlay's own layer — its version index
	// and slot array, its per-path override counts, its VID index — on a run
	// that returns no result(P) (Options.DropResult): objectbase.Overlay
	// writes into it, and the run after it into the same storage. A run that
	// keeps result(P) leaves it empty.
	layer objectbase.Layer
	// changes is the list finalize writes a run's changes into when it
	// returns no result(P) (Options.DropResult): the Result lends it as
	// Changes until Release. A run that keeps result(P) leaves it empty.
	changes []objectbase.Change
	// objsMost, spillMost and the three after them are the most entries the
	// maps have held since they were made (see emptied).
	objsMost, spillMost                    int
	versionsMost, overridesMost, indexMost int
}

// parked is the one process-wide slot a finished run leaves its scratch in
// for the next, shared by every repository of the process. A run takes what
// it holds and parks what it used in its place: runs beside each other never
// share a scratch, and whoever parks last wins. An idle process keeps the
// last run's scratch, trimmed by empty to what that run used. (With a
// sync.Pool or a weak pointer, collections would take it and what an apply
// allocates would follow the collector's timing; a slot per repository would
// retain one scratch per resident tenant. DESIGN.md §4 has the numbers.)
var parked atomic.Pointer[scratch]

// takeScratch empties the slot and returns what it held, or a new scratch
// when it held nothing (no run has parked one, or a run beside this one has
// taken it). The run owns what it gets.
func takeScratch() *scratch {
	if sc := parked.Swap(nil); sc != nil {
		return sc
	}
	return new(scratch)
}

// park empties the scratch and leaves it in the slot, in place of whatever
// a run beside this one has left there.
func (sc *scratch) park() {
	sc.empty()
	parked.Store(sc)
}

// empty makes the scratch what the next run expects — every value a slab
// hands out zero, every map and slice empty — and leaves nothing of the
// finished run reachable through it: the states its targets and slots held,
// the interned terms of its log, the strings of its program.
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
	sc.layer.Versions = emptied(sc.layer.Versions, &sc.versionsMost)
	sc.layer.Slots = trimmed(sc.layer.Slots)
	sc.layer.Overrides = emptied(sc.layer.Overrides, &sc.overridesMost)
	sc.layer.Index = emptied(sc.layer.Index, &sc.indexMost)
	sc.methods = trimmed(sc.methods)
	sc.keys = trimmed(sc.keys)
	sc.gone = trimmed(sc.gone)
	sc.dirty = trimmed(sc.dirty)
	sc.tasks = trimmed(sc.tasks)
	sc.changes = trimmed(sc.changes)
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
		e.keys = append(e.keys, term.Key{})
	}
	return m
}

// intern returns k, the key of method number m, interned. The run keeps the
// key it last interned per method, which the updates fired on a method
// nearly always share, so that a fired update seldom hashes its key.
func (e *engine) intern(m int32, k term.MethodKey) term.Key {
	if ik := e.keys[m]; ik == (term.Key{}) || ik.MethodKey().Args != k.Args {
		e.keys[m] = k.Intern()
	}
	return e.keys[m]
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

// firedUpdate is one fired update, 40 bytes of the log engine.ups: the
// method key (interned, see engine.intern) and the result it was fired
// with, its method as a number of the run's (engine.methods), the rule and
// iteration that derived it first, and the position of its target's next
// update (1-based, zero at the end). The version and the kind are the
// target's, which is where every list is reached from (see update). A
// modify carries a second result: the slot after its entry holds it in r
// and nothing else, so that inserts and deletes — all but a few of the
// updates of most runs — do not carry an empty one. All updates of a
// target have one kind, so the target says which form its list has.
type firedUpdate struct {
	r                        term.OID
	key                      term.Key
	next, method, rule, iter int32
}

// update rebuilds the Update the entry at position pos was fired as on the
// target tu.
func (e *engine) update(tu *targetUpdates, pos int32) Update {
	f := e.up(pos)
	path, kind := tu.w.Path.Pop()
	u := Update{Kind: kind, V: term.GVID{Object: tu.w.Object, Path: path}, Key: f.key.MethodKey(), R: f.r}
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
// w is kind(version). 88 bytes: the pointers first, then the five int32s and
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
	work       Work
}

// Run evaluates the update-program p on the object base ob: it stratifies
// p, iterates T_P stratum by stratum to the fixpoint, checks version-
// linearity online, and builds the updated object base. ob is not
// modified. Callers wanting safety diagnostics run package safety first;
// Run refuses an unsafe rule with the *CompileError of its match plan.
func Run(ob *objectbase.Base, p *term.Program, opts Options) (*Result, error) {
	sp := opts.Span
	// Plans that serve p and carry their stratification (PlanProgram's)
	// spare the run its own.
	compiled, res := opts.Plans, &Result{Plan: "cached"}
	params, served := compiled.bind(p)
	if served {
		res.Assignment = compiled.strata
	}
	if res.Assignment == nil {
		stratify := sp.Stage("stratify")
		var err error
		res.Assignment, err = strata.Stratify(p)
		res.Stats.Stratify = stratify.End()
		if err != nil {
			return nil, err
		}
		stratify.Span().SetInt("strata", int64(len(res.Assignment.Strata)))
	}
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
	if !served {
		var err error
		if compiled, err = Compile(ob, p, false); err != nil {
			return nil, err
		}
		res.Plan = "compiled"
	}
	sp.SetAttr("plan", res.Plan)
	// The evaluation writes into the scratch the last one parked and parks it
	// again once nothing reads it any more — after buildTrace and ruleStats,
	// on a refusal as on a result, and, on a result whose Changes it lends,
	// at Release. A panic passes the park by: a scratch abandoned half-way is
	// in no state to hand on, and the collector has it.
	e := newEngine(ob, p, compiled, opts, takeScratch())
	e.x.params = params
	if err := e.evaluate(res); err != nil {
		e.park()
		return nil, err
	}
	if opts.DropResult {
		res.lent = e.scratch
	} else {
		e.park()
	}
	return res, nil
}

// evaluate runs the strata of res.Assignment in order and the copy phase
// after them, and fills in res.
func (e *engine) evaluate(res *Result) error {
	sp := e.opts.Span
	if err := e.seedDeepest(); err != nil {
		return err
	}
	for si, stratum := range res.Assignment.Strata {
		var name string
		if sp != nil {
			name = "stratum " + strconv.Itoa(si+1)
		}
		stage := sp.Stage(name)
		stage.Span().SetInt("rules", int64(len(stratum)))
		iters, err := e.newStratumRun(si, stratum, stage.Span()).run()
		stage.Span().SetInt("iterations", int64(iters))
		d := stage.End()
		if err != nil {
			return err
		}
		res.Iterations = append(res.Iterations, iters)
		res.Stats.Strata = append(res.Stats.Strata, StratumTiming{Duration: d, Iterations: iters})
	}
	// result(P) shares the states of versions no update changed with the
	// input base: frozen, nobody can edit the input through it.
	if !e.opts.DropResult {
		res.Result = e.base.Freeze()
	}
	stage := sp.Stage("copy")
	res.Final, res.Changes = e.finalize()
	stage.Span().SetInt("objects", int64(len(e.objs)))
	stage.Span().SetInt("changed", int64(len(res.Changes)))
	res.Stats.Copy = stage.End()
	res.Fired = e.fired
	res.RuleStats = e.ruleStats()
	for _, rs := range res.RuleStats {
		res.Stats.Work.add(rs.Work)
	}
	res.Trace = e.buildTrace()
	return nil
}

// newEngine sets up the evaluation of p, compiled, over the frozen base ob,
// with sc, empty, as its working memory: the overlay's own layer too, when
// the caller will not read result(P).
func newEngine(ob *objectbase.Base, p *term.Program, compiled *CompiledProgram, opts Options, sc *scratch) *engine {
	var lent *objectbase.Layer
	if opts.DropResult {
		lent = &sc.layer
	}
	e := &engine{
		scratch:  sc,
		base:     objectbase.Overlay(ob, lent),
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
// seeding costs nothing on a repository head. A single unsorted pass finds
// every object that fails: while an object has passed, every version of it
// is a prefix of the running deepest (or extends it), so any version
// incomparable with some earlier one is also incomparable with the running
// deepest and is caught when it arrives. (The object itself is a prefix of
// all its versions and cannot take part in a violation.) Which version is
// caught follows the order; which objects fail does not (see refusal).
func (e *engine) seedDeepest() error {
	var failed *term.OID // the least object that fails
	for _, v := range e.p0.Unsettled() {
		if !e.touch(v.Object).deepen(v) && (failed == nil || v.Object.Compare(*failed) < 0) {
			failed = &v.Object
		}
	}
	if failed != nil {
		return e.refusal(*failed)
	}
	return nil
}

// deepen holds version w of the object against its deepest version so far
// — the online version-linearity check Section 5 suggests — and makes w
// the deepest when it extends it. It reports whether w passed.
func (obj *touched) deepen(w term.GVID) bool {
	d := obj.deepest
	if !w.Path.HasPrefix(d) && !d.HasPrefix(w.Path) {
		return false
	}
	if w.Path.Len() > d.Len() {
		obj.deepest = w.Path
	}
	return true
}

// refusal is the error for o, the least object that failed a check. It
// reads only sets: the updates fired on o's targets with no state to start
// from (locate leaves them nil), or else the pairs of o's versions, the
// input's and the targets' (see LinearityError and NewObjectError).
func (e *engine) refusal(o term.OID) error {
	var first *Update
	var vs []term.GVID
	for tu := e.objs[o].updates; tu != nil; tu = tu.older {
		vs = append(vs, tu.w)
		for pos := tu.first; tu.st == nil && pos != 0; pos = e.up(pos).next {
			if u := e.update(tu, pos); first == nil || u.compare(*first) < 0 {
				first = &u
			}
		}
	}
	if first != nil {
		return &NewObjectError{Update: *first}
	}
	for _, v := range e.p0.Unsettled() {
		if v.Object == o {
			vs = append(vs, v)
		}
	}
	var err *LinearityError // A < B, so B is no prefix of A
	for _, a := range vs {
		for _, b := range vs {
			if a.Compare(b) < 0 && !b.Path.HasPrefix(a.Path) &&
				(err == nil || a.Compare(err.A) < 0 || a == err.A && b.Compare(err.B) < 0) {
				err = &LinearityError{Object: o, A: a, B: b}
			}
		}
	}
	return err
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
			Work: a.work,
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
// it does there (48 bytes).
type spillKey struct {
	tu    *targetUpdates
	r, r2 term.OID
	key   term.Key
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
	key := e.intern(m, u.Key)
	if tu.n <= dedupSpill {
		for pos := tu.first; pos != 0; {
			f := e.up(pos)
			if f.key == key && f.r == u.R && (!mod || e.newResult(pos) == u.R2) {
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
				k := spillKey{tu: tu, r: f.r, key: f.key}
				if mod {
					k.r2 = e.newResult(pos)
				}
				e.spill[k] = struct{}{}
				pos = f.next
			}
			e.spill[spillKey{tu, u.R, u.R2, key}] = struct{}{}
		}
	} else {
		k := spillKey{tu, u.R, u.R2, key}
		if _, known := e.spill[k]; known {
			return
		}
		e.spill[k] = struct{}{}
	}
	*e.ups.next() = firedUpdate{r: u.R, key: key, method: m, rule: int32(ri), iter: int32(s.iter)}
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
}

// newStratumRun sets up the fixpoint of stratum si over the given rules,
// recording iteration spans under stratumSpan when tracing.
func (e *engine) newStratumRun(si int, ruleIdx []int, stratumSpan *obs.Span) *stratumRun {
	s := &stratumRun{e: e, si: si, rules: ruleIdx, span: stratumSpan}
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
	tasks := e.tasks[:0]
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
		itSpan = s.span.AddChild("iteration "+strconv.Itoa(iter), time.Now(), 0)
		itSpan.SetInt("delta_in", int64(s.added))
	}
	s.fresh = 0
	// A rule's tasks are listed together and run in order, so the span of a
	// rule folds adjacent tasks: the first one's start, the sums of the rest.
	var rule fireStat
	for ti, t := range tasks {
		ri, emitted, fired := t.ri, 0, e.agg[t.ri].fired
		st, err := e.step1(s.si, t, func(u Update) error {
			emitted++
			s.collect(ri, u)
			return nil
		})
		if err != nil {
			itSpan.End()
			return iter, err
		}
		a := &e.agg[ri]
		a.emitted += emitted
		a.matched += st.matched
		a.time += st.dur
		a.work.add(e.x.work)
		e.x.work = Work{}
		if ti == 0 || tasks[ti-1].ri != ri {
			a.iterations++
			rule = fireStat{start: st.start}
		}
		rule.dur += st.dur
		rule.matched += st.matched
		rule.emitted += emitted
		rule.fired += a.fired - fired
		if itSpan != nil && (ti+1 == len(tasks) || tasks[ti+1].ri != ri) {
			rs := itSpan.AddChild("rule "+e.labels[ri], rule.start, rule.dur)
			rs.SetInt("matched", rule.matched)
			rs.SetInt("emitted", int64(rule.emitted))
			rs.SetInt("fired", int64(rule.fired))
		}
	}
	e.tasks = tasks
	if itSpan != nil {
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

// deltaSink receives the facts an iteration adds to one version that was
// there before it: it counts them all and files those some rule can be
// seeded from in their buckets. work is the account extending the version
// is counted on (see payer).
type deltaSink struct {
	w    term.GVID
	bs   []*bucket // the buckets of w's path
	n    int
	work *Work
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
// The targets are checked first, in the order they were met in: where a
// new one starts from, its object's linearity, the delta buckets' room. No
// state is edited unless all pass; a refusal is decided by sets (refusal).
func (s *stratumRun) applyTargets() (changed bool, added int, err error) {
	e, dirty := s.e, s.e.dirty
	for _, b := range s.buckets {
		b.reset()
	}
	var failed *term.OID // the least object that fails
	for _, tu := range dirty {
		if o := &tu.w.Object; (tu.st == nil && !e.locate(tu)) || !tu.obj.deepen(tu.w) {
			if failed == nil || o.Compare(*failed) < 0 {
				failed = o
			}
			continue
		}
		for _, b := range s.byPath[tu.w.Path] {
			e.reserve(tu, b)
		}
	}
	if failed != nil {
		return false, 0, e.refusal(*failed)
	}
	for _, b := range s.buckets {
		b.facts = slices.Grow(b.facts, b.room)
		b.whole = slices.Grow(b.whole, b.wholeRoom)
	}

	e.base.GrowStates(len(dirty))
	for _, tu := range dirty {
		sink := deltaSink{w: tu.w, bs: s.byPath[tu.w.Path], work: e.payer(tu)}
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

// payer returns the account step 2's work on tu is counted on — that of the
// least rule among those that fired its fresh updates, which no firing order
// changes — and counts on it the membership test of tu's state that each
// fresh update costs.
func (e *engine) payer(tu *targetUpdates) *Work {
	ri, n := int32(len(e.agg)), 0
	for f := e.up(tu.fresh); f != nil; f = e.up(f.next) {
		ri, n = min(ri, f.rule), n+1
	}
	w := &e.agg[ri].work
	w.Probes += n
	w.Scanned += n * tu.st.Visits()
	return w
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
			if f.method == m && !(kind == term.Ins && !tu.owned && tu.st.HasKey(f.key, f.r)) {
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
		for range tu.st.OfMethod(b.method) {
			b.room++
		}
	}
	b.room += adds
}

// locate finds the state a target starts the stratum from: its own when the
// version is active already, otherwise that of v* — shared, not copied — or,
// for an object no version of which exists, a fresh state holding exists
// (creation of new objects is an extension; see DESIGN.md). It reports
// whether it found one: not the last under Options.ForbidNewObjects.
func (e *engine) locate(tu *targetUpdates) bool {
	w := tu.w
	existsKey := term.MethodKey{Method: term.ExistsMethod}
	cur := e.base.StateOf(w)
	if cur != nil && cur.HasMethod(existsKey) {
		tu.st = cur
		return true
	}
	tu.appears, tu.prev = true, cur
	// Path-0 parents can be read straight from the frozen base: the
	// overlay's own layer never holds path-0 versions (heads push), so
	// readBase skips the guaranteed own-layer miss.
	path, _ := w.Path.Pop()
	v := term.GVID{Object: w.Object, Path: path}
	if vstar, ok := e.readBase(v).VStar(v); ok {
		tu.st = e.readBase(vstar).StateOf(vstar)
		return true
	}
	if e.opts.ForbidNewObjects {
		return false
	}
	tu.st, tu.owned = objectbase.NewState(), true
	tu.st.Add(existsKey, w.Object)
	return true
}

// appear installs a target the base does not hold yet and applies its
// updates. Without a prev every fact of the new version is new to the base:
// the version enters the buckets whose method it carries as it stands, by
// reference. With one (a hand-written input version that lacks exists) the
// facts prev did not have are filed one by one.
func (e *engine) appear(tu *targetUpdates, d *deltaSink) (changed bool) {
	prev := tu.prev
	tu.appears, tu.prev = false, nil
	quiet := deltaSink{work: d.work}
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
	for k, r := range tu.st.All() {
		if !prev.Has(k, r) {
			d.add(k, r)
		}
	}
	return changed
}

// own gives the target a private copy of its state, with room for the
// updates that wait: the one copy step 2 of T_P makes of a version — and,
// for an object's deepest version, the only one the apply makes of that
// state (see finalize).
func (e *engine) own(tu *targetUpdates, room int, w *Work) {
	w.Copied++
	w.Moved += tu.st.Size()
	tu.st = tu.st.CloneWithRoom(room)
	tu.owned = true
	e.base.Adopt(tu.w, tu.st)
}

// keyResult is one (method key, result) application extend took out.
type keyResult struct {
	key term.Key
	r   term.OID
}

// extend applies the target's fresh updates to its state, copying the state
// first if it is still shared and an update changes it, and reports the
// added facts to d. Insert and delete targets are monotone, so the fresh
// updates are all there is to do. A modify target removes the fresh old
// results and then re-adds every new result it has accumulated — a fresh
// removal may have taken one out — which leaves the state equal to the
// source minus all old results plus all new ones, what applying the whole
// update set to a fresh copy of the source would give. The log keeps a
// method key interned (engine.intern) and a modify's new result in the slot
// after its entry: a modify list is walked by position, which is what finds
// that slot.
func (e *engine) extend(tu *targetUpdates, d *deltaSink) (changed bool) {
	w := tu.w
	switch w.Path.Outer() {
	case term.Ins:
		for f := e.up(tu.fresh); f != nil; f = e.up(f.next) {
			if !tu.owned {
				if tu.st.HasKey(f.key, f.r) {
					continue
				}
				room := 1
				for g := e.up(f.next); g != nil; g = e.up(g.next) {
					room++
				}
				e.own(tu, room, d.work)
			}
			if e.base.AddTo(w, tu.st, f.key, f.r) {
				changed = true
				d.work.Moved++
				d.add(f.key.MethodKey(), f.r)
			}
		}
	case term.Del:
		for f := e.up(tu.fresh); f != nil; f = e.up(f.next) {
			if !tu.owned {
				if !tu.st.HasKey(f.key, f.r) {
					continue
				}
				e.own(tu, 0, d.work)
			}
			changed = e.base.RemoveFrom(w, tu.st, f.key, f.r) || changed
		}
	case term.Mod:
		if !tu.owned {
			touches := false
			for pos := tu.fresh; pos != 0 && !touches; {
				f, r2 := e.up(pos), e.newResult(pos)
				touches = f.r != r2 && (tu.st.HasKey(f.key, f.r) || !tu.st.HasKey(f.key, r2))
				pos = f.next
			}
			if !touches {
				return false
			}
			e.own(tu, 0, d.work) // a modify puts in what it takes out
		}
		gone := e.gone[:0]
		for f := e.up(tu.fresh); f != nil; f = e.up(f.next) {
			if e.base.RemoveFrom(w, tu.st, f.key, f.r) {
				gone = append(gone, keyResult{f.key, f.r})
			}
		}
		lost := len(gone)
		for pos := tu.first; pos != 0; {
			f, r2 := e.up(pos), e.newResult(pos)
			pos = f.next
			if !e.base.AddTo(w, tu.st, f.key, r2) {
				continue
			}
			d.work.Moved++
			if slices.Contains(gone, keyResult{f.key, r2}) {
				lost-- // was there before the iteration: not new
			} else {
				changed = true
				d.add(f.key.MethodKey(), r2)
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
	if e.opts.DropResult {
		changes = e.changes[:0] // the scratch's, lent to the Result
	}
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
		if len(changes) == 0 && cap(changes) <= left {
			// Sized at the first object that did change, unless the lent list
			// holds them all: an apply that changes nothing reserves nothing,
			// one that changes everything it touched allocates once at most.
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
	if e.opts.DropResult {
		e.changes = changes
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
