package eval

// exec.go runs compiled match plans (compile.go). An executor is single-
// goroutine state holding the frame of a run: a flat []term.OID indexed by
// compile-time slots. It needs no undo trail: binding modes are static (the
// first occurrence of a variable writes, later ones compare), a failed
// candidate's partial bindings are overwritten by the next candidate before
// anything reads them, and each step zeroes the slots it binds when it
// exhausts so outer candidates start clean. The body-position truth definitions of Section 3
// are the exec* methods, the head-position ones fire.

import (
	"fmt"
	"slices"

	"verlog/internal/builtin"
	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// executor evaluates compiled rules against a base. Every enumeration
// matches each candidate as the base's iterator hands it out and returns
// the first error, which stops the walk: matching only reads the base (step
// 1 of T_P logs its updates, and a query changes nothing), so nothing it
// walks changes under it.
type executor struct {
	base *objectbase.Base
	// p0 is base's parent, the frozen input of the run. During a fixpoint,
	// rule heads only push onto paths, so the overlay's own layer never
	// shadows a path-0 version: reads of path-0 VIDs can go straight to the
	// parent, skipping the own-layer miss on the hottest lookups. A query
	// changes nothing, so there p0 is the queried base itself.
	p0 *objectbase.Base
	// idx is p0's literal index (exact for path-0 literals for the whole
	// run), fetched on the first probe: plans that only look versions up by
	// a bound base — every point update — never ask for it.
	idx *objectbase.LiteralIndex
	// params are the values of a lifted plan's parameter slots (the first
	// len(params) of the frame), written when a match starts.
	params []term.OID

	// frame is the frame of the match under way, kept for the next. match
	// is not re-entrant — no continuation it calls, neither a rule's onFire
	// nor a query's row collection, calls match on the same executor — so
	// one frame serves every match of the executor.
	frame []term.OID
	args  []term.OID // resolveKey scratch, consumed before any recursion
	// lastKey and lastArgs are the key resolveKey built last and its
	// argument values: a tuple of constants and parameters, the same for
	// every candidate of a run, is encoded once.
	lastKey  term.MethodKey
	lastArgs []term.OID
	// work is what the matching did since the engine last took it: plain
	// counts, a lookup or a candidate at a time (see Work).
	work Work

	// Two-entry state cache. Plans touch the same candidate VIDs in several
	// consecutive steps (the scan driver, then one lookup per further body
	// literal, often alternating between two joined versions), and each
	// state read costs a GVID hash plus map probes; the cache turns the
	// repeats into an equality check. Two slots with round-robin
	// replacement keep both sides of a binary join resident. Valid only
	// while the base is unchanged — run() resets it, and the engine never
	// mutates the base while a rule is matching.
	cacheV [2]term.GVID
	cacheS [2]*objectbase.State
	cacheN int // valid slots (0..2)
	cacheI int // next slot to evict
}

// stateFor returns the state of g (nil if absent), memoizing the last two
// lookups.
func (x *executor) stateFor(g term.GVID) *objectbase.State {
	x.work.Probes++
	for i := 0; i < x.cacheN; i++ {
		if x.cacheV[i] == g {
			return x.cacheS[i]
		}
	}
	s := x.readBase(g).StateOf(g)
	i := x.cacheI
	x.cacheV[i], x.cacheS[i] = g, s
	x.cacheI = i ^ 1
	if x.cacheN < 2 {
		x.cacheN++
	}
	return s
}

func newExecutor(base *objectbase.Base) *executor {
	return &executor{base: base, p0: base.Parent()}
}

// readBase returns the base to read version g's state from: the overlay
// parent directly for path-0 VIDs (never shadowed during a fixpoint), the
// full overlay otherwise.
func (x *executor) readBase(g term.GVID) *objectbase.Base {
	if g.Path.Len() == 0 {
		return x.p0
	}
	return x.base
}

// index returns the input base's literal index (see executor.idx).
func (x *executor) index() *objectbase.LiteralIndex {
	if x.idx == nil {
		x.idx = x.p0.Index()
	}
	return x.idx
}

// probe runs the step on every live hit of an index probe.
func (x *executor) probe(st *cstep, fr []term.OID, hits objectbase.Hits, k func() error) error {
	x.work.Probes++
	x.work.Scanned += hits.Len()
	for i, n := 0, hits.Len(); i < n; i++ {
		g, ok := hits.At(i)
		if !ok || !st.base.match(fr, g.Object) {
			continue
		}
		if err := x.matchApp(st, fr, g, k); err != nil {
			return err
		}
	}
	return nil
}

// run evaluates one compiled plan (the full steps or a delta variant) and
// fires the head for every complete body match. delta is the (path, method)
// bucket an accessDelta seed joins against: everything in it is on the
// seed's path and method. It is nil when the steps have no such seed.
func (x *executor) run(cr *compiledRule, steps []cstep, delta *bucket, matched *int64, onFire func(Update) error) error {
	return x.match(cr.nslots, steps, delta, func(fr []term.OID) error {
		*matched++
		return x.fire(&cr.head, fr, onFire)
	})
}

// match enumerates the complete matches of the steps, calling k with the
// frame of each; the frame is only valid during the call.
func (x *executor) match(nslots int, steps []cstep, delta *bucket, k func(fr []term.OID) error) error {
	x.cacheN, x.cacheI = 0, 0
	if cap(x.frame) < nslots {
		x.frame = make([]term.OID, nslots)
	}
	fr := x.frame[:nslots]
	clear(fr)
	copy(fr, x.params)
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(steps) {
			return k(fr)
		}
		st := &steps[i]
		err := x.exec(st, fr, delta, func() error { return rec(i + 1) })
		for _, s := range st.bindSlots {
			fr[s] = term.OID{}
		}
		return err
	}
	return rec(0)
}

func (x *executor) exec(st *cstep, fr []term.OID, delta *bucket, k func() error) error {
	switch st.kind {
	case stepScan:
		return x.execScan(st, fr, delta, k)
	case stepDel:
		return x.execDel(st, fr, k)
	case stepMod:
		return x.execMod(st, fr, k)
	case stepBuiltin:
		return x.execBuiltin(st, fr, k)
	case stepNegVer:
		return x.execNegVer(st, fr, k)
	case stepNegAny:
		return x.execNegAny(st, fr, k)
	case stepNegDel, stepNegMod:
		return x.execNegUpd(st, fr, k)
	default:
		return fmt.Errorf("eval: unknown step kind %d", st.kind)
	}
}

// execScan enumerates a positive version pattern via the step's access.
func (x *executor) execScan(st *cstep, fr []term.OID, delta *bucket, k func() error) error {
	switch st.acc {
	case accessDelta:
		x.work.Scanned += len(delta.facts) + len(delta.whole)
		for i := range delta.facts {
			f := &delta.facts[i]
			if !st.base.match(fr, f.object) {
				continue
			}
			if !x.matchFactArgs(st, fr, f.args) {
				continue
			}
			if !st.result.match(fr, f.result) {
				continue
			}
			if err := k(); err != nil {
				return err
			}
		}
		// A version that appeared is its own delta: the step's application is
		// matched on the state it entered with, as a lookup matches it on the
		// state of a version it is given.
		onApp := func(term.MethodKey, term.OID) error { return k() }
		for _, v := range delta.whole {
			if !st.base.match(fr, v.object) {
				continue
			}
			if err := x.matchOn(st, fr, v.st, onApp); err != nil {
				return err
			}
		}
		return nil

	case accessLookup:
		g := term.GVID{Object: st.base.value(fr), Path: st.path}
		return x.matchApp(st, fr, g, k)

	case accessProbeResult:
		r := st.result.value(fr)
		return x.probe(st, fr, x.index().VIDsWithResult(st.path, st.method, r), k)

	case accessProbeArg:
		a0 := st.args[0].value(fr)
		return x.probe(st, fr, x.index().VIDsWithArg(st.path, st.method, a0), k)

	case accessAny:
		// Each loop ranges over the iterator itself, not over an iter.Seq
		// passed in: the iterator inlines, and the loop body stays on the stack.
		for g := range x.base.VIDsWithMethod(st.method) {
			x.work.Scanned++
			if !st.base.match(fr, g.Object) {
				continue
			}
			if err := x.matchApp(st, fr, g, k); err != nil {
				return err
			}
		}
		return nil

	default: // accessScan
		for g := range x.base.VIDsWith(st.path, st.method) {
			x.work.Scanned++
			if !st.base.match(fr, g.Object) {
				continue
			}
			if err := x.matchApp(st, fr, g, k); err != nil {
				return err
			}
		}
		return nil
	}
}

// resolveKey resolves the step's method key against the frame. Every
// argument operand is a constant or a checked slot (callers only resolve
// keys when argsBind is false, or on negation/ground steps).
func (x *executor) resolveKey(keyStatic bool, key term.MethodKey, method string, args []operand, fr []term.OID) term.MethodKey {
	if keyStatic {
		return key
	}
	x.args = x.args[:0]
	for _, op := range args {
		x.args = append(x.args, op.value(fr))
	}
	if method == x.lastKey.Method && slices.Equal(x.args, x.lastArgs) {
		return x.lastKey
	}
	x.lastKey = term.MethodKey{Method: method, Args: term.EncodeOIDs(x.args)}
	x.lastArgs = append(x.lastArgs[:0], x.args...)
	return x.lastKey
}

// matchFactArgs unifies the step's argument operands with a fact's encoded
// tuple (delta joins).
func (x *executor) matchFactArgs(st *cstep, fr []term.OID, args term.Args) bool {
	if len(st.args) == 0 {
		return args.Empty()
	}
	vals := args.Decode()
	if len(vals) != len(st.args) {
		return false
	}
	for i, op := range st.args {
		if !op.match(fr, vals[i]) {
			return false
		}
	}
	return true
}

// matchApp enumerates matches of the step's application on the ground VID g.
func (x *executor) matchApp(st *cstep, fr []term.OID, g term.GVID, k func() error) error {
	return x.matchAppKR(st, fr, g, func(term.MethodKey, term.OID) error { return k() })
}

// matchAppKR is matchApp with the resolved key and result passed to the
// continuation (del/mod steps need them).
func (x *executor) matchAppKR(st *cstep, fr []term.OID, g term.GVID, k func(key term.MethodKey, r term.OID) error) error {
	s := x.stateFor(g)
	if s == nil {
		return nil
	}
	return x.matchOn(st, fr, s, k)
}

// matchOn enumerates matches of the step's application on the state s of
// some version.
func (x *executor) matchOn(st *cstep, fr []term.OID, s *objectbase.State, k func(key term.MethodKey, r term.OID) error) error {
	if !st.argsBind {
		key := x.resolveKey(st.keyStatic, st.key, st.method, st.args, fr)
		if st.result.mode != oBind {
			x.work.Scanned += s.Visits()
			r := st.result.value(fr)
			if s.Has(key, r) {
				return k(key, r)
			}
			return nil
		}
		x.work.Scanned += s.Size()
		for r := range s.Results(key) {
			fr[st.result.slot] = r
			if err := k(key, r); err != nil {
				return err
			}
		}
		return nil
	}
	// Arguments contain binding slots: scan all applications of the method
	// on g and unify per candidate.
	x.work.Scanned += s.Size()
	for key, r := range s.OfMethod(st.method) {
		if !x.matchFactArgs(st, fr, key.Args) || !st.result.match(fr, r) {
			continue
		}
		if err := k(key, r); err != nil {
			return err
		}
	}
	return nil
}

// execDel enumerates a positive del-term: del[v].m -> r holds iff
// v*.m -> r is in the base, del(v) exists, and del(v).m -> r is absent.
func (x *executor) execDel(st *cstep, fr []term.OID, k func() error) error {
	if st.acc == accessLookup {
		w := term.GVID{Object: st.base.value(fr), Path: st.tpath}
		return x.delOn(st, fr, w, k)
	}
	for w := range x.base.VIDsWith(st.tpath, term.ExistsMethod) {
		x.work.Scanned++
		if !st.base.match(fr, w.Object) {
			continue
		}
		if err := x.delOn(st, fr, w, k); err != nil {
			return err
		}
	}
	return nil
}

func (x *executor) delOn(st *cstep, fr []term.OID, w term.GVID, k func() error) error {
	x.work.Probes += 2 // exists(w), and v*
	if !x.base.Exists(w) {
		return nil
	}
	v := term.GVID{Object: w.Object, Path: w.Path[:w.Path.Len()-1]}
	vstar, ok := x.readBase(v).VStar(v)
	if !ok {
		return nil
	}
	return x.matchAppKR(st, fr, vstar, func(key term.MethodKey, r term.OID) error {
		x.work.Probes++
		if x.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}) {
			return nil
		}
		return k()
	})
}

// execMod enumerates a positive mod-term: mod[v].m -> (r, r') holds iff
// v*.m -> r is in the base, mod(v).m -> r' is in the base, and — when r
// differs from r' — mod(v).m -> r is absent.
func (x *executor) execMod(st *cstep, fr []term.OID, k func() error) error {
	if st.acc == accessLookup {
		w := term.GVID{Object: st.base.value(fr), Path: st.tpath}
		return x.modOn(st, fr, w, k)
	}
	for w := range x.base.VIDsWith(st.tpath, st.method) {
		x.work.Scanned++
		if !st.base.match(fr, w.Object) {
			continue
		}
		if err := x.modOn(st, fr, w, k); err != nil {
			return err
		}
	}
	return nil
}

func (x *executor) modOn(st *cstep, fr []term.OID, w term.GVID, k func() error) error {
	x.work.Probes++ // v*
	v := term.GVID{Object: w.Object, Path: w.Path[:w.Path.Len()-1]}
	vstar, ok := x.readBase(v).VStar(v)
	if !ok {
		return nil
	}
	return x.matchAppKR(st, fr, vstar, func(key term.MethodKey, r term.OID) error {
		x.work.Probes++
		for rp := range x.base.Results(w, key) {
			x.work.Scanned++
			if !st.newResult.match(fr, rp) {
				continue
			}
			x.work.Probes++
			if r != rp && x.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}) {
				continue
			}
			if err := k(); err != nil {
				return err
			}
		}
		return nil
	})
}

// execBuiltin evaluates a compiled comparison or binding equality.
func (x *executor) execBuiltin(st *cstep, fr []term.OID, k func() error) (err error) {
	defer term.RecoverOverflow(&err)
	if st.bindSlot >= 0 {
		v, verr := x.evalCexpr(st.rhs, fr)
		if verr != nil {
			return verr
		}
		fr[st.bindSlot] = v
		return k()
	}
	l, lerr := x.evalCexpr(st.lhs, fr)
	if lerr != nil {
		return lerr
	}
	r, rerr := x.evalCexpr(st.rhs, fr)
	if rerr != nil {
		return rerr
	}
	ok, cerr := builtin.Compare(st.cmp, l, r)
	if cerr != nil {
		return cerr
	}
	if ok != st.negate {
		return k()
	}
	return nil
}

func (x *executor) evalCexpr(e *cexpr, fr []term.OID) (term.OID, error) {
	switch e.kind {
	case ceConst:
		return e.c, nil
	case ceSlot:
		return fr[e.slot], nil
	case ceNeg:
		v, err := x.evalCexpr(e.l, fr)
		if err != nil {
			return term.OID{}, err
		}
		if !v.IsNum() {
			return term.OID{}, &builtin.TypeError{Op: "-", Operands: []term.OID{v}}
		}
		return term.FromRat(v.Rat().Neg()), nil
	default: // ceBin
		l, err := x.evalCexpr(e.l, fr)
		if err != nil {
			return term.OID{}, err
		}
		r, err := x.evalCexpr(e.r, fr)
		if err != nil {
			return term.OID{}, err
		}
		return builtin.ApplyArith(e.op, l, r)
	}
}

// execNegVer checks a negated (fully ground) version- or ins-term: the
// literal passes when the fact is absent.
func (x *executor) execNegVer(st *cstep, fr []term.OID, k func() error) error {
	g := term.GVID{Object: st.base.value(fr), Path: st.path}
	key := x.resolveKey(st.keyStatic, st.key, st.method, st.args, fr)
	x.work.Probes++
	if x.base.Has(term.Fact{V: g, Method: key.Method, Args: key.Args, Result: st.result.value(fr)}) {
		return nil
	}
	return k()
}

// execNegAny checks a negated any(...) pattern: the wildcard is
// existential, so the literal passes when no version of the object, at any
// path, carries the application.
func (x *executor) execNegAny(st *cstep, fr []term.OID, k func() error) error {
	o := st.base.value(fr)
	key := x.resolveKey(st.keyStatic, st.key, st.method, st.args, fr)
	r := st.result.value(fr)
	for g := range x.base.VIDsWithMethod(st.method) {
		x.work.Scanned++
		if g.Object == o && x.base.Has(term.Fact{V: g, Method: key.Method, Args: key.Args, Result: r}) {
			return nil
		}
	}
	return k()
}

// execNegUpd checks a negated (fully ground) del- or mod-term against the
// body-position truth definitions execDel and execMod enumerate by.
func (x *executor) execNegUpd(st *cstep, fr []term.OID, k func() error) error {
	v := term.GVID{Object: st.base.value(fr), Path: st.path}
	w := term.GVID{Object: v.Object, Path: st.tpath}
	key := x.resolveKey(st.keyStatic, st.key, st.method, st.args, fr)
	r := st.result.value(fr)
	truth := false
	x.work.Probes += 2 // v*, and the fact under it
	switch st.kind {
	case stepNegDel:
		if vstar, ok := x.base.VStar(v); ok {
			truth = x.base.Has(term.Fact{V: vstar, Method: key.Method, Args: key.Args, Result: r}) &&
				x.base.Exists(w) &&
				!x.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r})
		}
	default: // stepNegMod
		rp := st.newResult.value(fr)
		if vstar, ok := x.base.VStar(v); ok {
			truth = x.base.Has(term.Fact{V: vstar, Method: key.Method, Args: key.Args, Result: r}) &&
				x.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: rp}) &&
				!(r != rp && x.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}))
		}
	}
	if truth {
		return nil
	}
	return k()
}

// fire grounds the compiled head against the frame, applies the
// head-position truth definitions of Section 3, and emits the resulting
// updates: an insert always; a delete or modify iff v*.m -> r is in the
// base; del[v].* one delete per application of v* other than exists.
func (x *executor) fire(h *chead, fr []term.OID, onFire func(Update) error) error {
	v := term.GVID{Object: h.base.value(fr), Path: h.path}
	if h.all {
		x.work.Probes++
		vstar, ok := x.base.VStar(v)
		if !ok {
			return nil
		}
		// onFire edits no state, so the facts are emitted as they are read.
		for f := range x.base.FactsOf(vstar) {
			x.work.Scanned++
			if f.IsExists() {
				continue
			}
			if err := onFire(Update{Kind: term.Del, V: v, Key: f.Key(), R: f.Result}); err != nil {
				return err
			}
		}
		return nil
	}
	key := x.resolveKey(h.keyStatic, h.key, h.method, h.args, fr)
	res := h.result.value(fr)
	u := Update{Kind: h.kind, V: v, Key: key, R: res}
	switch h.kind {
	case term.Del, term.Mod:
		x.work.Probes += 2 // v*, and the fact under it
		vstar, ok := x.readBase(v).VStar(v)
		if !ok {
			return nil
		}
		if !x.readBase(vstar).Has(term.Fact{V: vstar, Method: key.Method, Args: key.Args, Result: res}) {
			return nil
		}
		if h.kind == term.Mod {
			u.R2 = h.newResult.value(fr)
		}
	}
	return onFire(u)
}
