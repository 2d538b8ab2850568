package eval

// exec.go runs compiled match plans (compile.go). An executor is single-
// goroutine state holding the frame and candidate-buffer arena of a run. It
// works on a flat []term.OID frame indexed by compile-time slots and needs
// no undo trail: binding modes are static (the first occurrence of a
// variable writes, later ones compare), a failed candidate's partial
// bindings are overwritten by the next candidate before anything reads
// them, and each step zeroes the slots it binds when it exhausts so outer
// candidates start clean. The body-position truth definitions of Section 3
// are the exec* methods, the head-position ones fire.

import (
	"fmt"
	"slices"

	"verlog/internal/builtin"
	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// keyResult is one (method key, result) application collected while
// scanning a method with unbound arguments.
type keyResult struct {
	key term.MethodKey
	r   term.OID
}

// executor evaluates compiled rules against a base. Candidate buffers are
// arena free-lists working as stacks across the nested step enumerations:
// an enumeration pops a buffer, recurses, and pushes it back when done.
// The objectbase iterators cannot early-exit or propagate errors; the
// enumerations that collect do so to stop at the first one. Two kinds skip
// collection entirely: index probes iterate the shared index slice, which
// is immutable after build, and the (path, method) scan of a version
// pattern — the one whose candidates number with the base — matches inside
// the walk and latches the first error (execScan).
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

	frames [][]term.OID
	vids   [][]term.GVID
	oids   [][]term.OID
	krs    [][]keyResult
	ups    []Update   // fire's delete-all scratch
	args   []term.OID // resolveKey scratch, consumed before any recursion

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

func (x *executor) getFrame(n int) []term.OID {
	if l := len(x.frames); l > 0 {
		fr := x.frames[l-1]
		x.frames = x.frames[:l-1]
		if cap(fr) >= n {
			fr = fr[:n]
			for i := range fr {
				fr[i] = term.OID{}
			}
			return fr
		}
	}
	return make([]term.OID, n)
}

func (x *executor) putFrame(fr []term.OID) { x.frames = append(x.frames, fr) }

// getVIDs pops a candidate buffer for the enumerations that still collect:
// any(...) patterns and the del[...] / mod[...] body terms with an unbound
// base. A buffer is new with every run (the executor is), which is why the
// accessScan arm of execScan does without one.
func (x *executor) getVIDs() []term.GVID {
	if n := len(x.vids); n > 0 {
		buf := x.vids[n-1]
		x.vids = x.vids[:n-1]
		return buf
	}
	return nil
}

func (x *executor) putVIDs(buf []term.GVID) { x.vids = append(x.vids, buf[:0]) }

func (x *executor) getOIDs() []term.OID {
	if n := len(x.oids); n > 0 {
		buf := x.oids[n-1]
		x.oids = x.oids[:n-1]
		return buf
	}
	return nil
}

func (x *executor) putOIDs(buf []term.OID) { x.oids = append(x.oids, buf[:0]) }

func (x *executor) getKRs() []keyResult {
	if n := len(x.krs); n > 0 {
		buf := x.krs[n-1]
		x.krs = x.krs[:n-1]
		return buf
	}
	return nil
}

func (x *executor) putKRs(buf []keyResult) { x.krs = append(x.krs, buf[:0]) }

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
	fr := x.getFrame(nslots)
	defer x.putFrame(fr)
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
		cands := x.getVIDs()
		if st.base.mode != oBind {
			o := st.base.value(fr)
			x.base.ForEachVIDWithMethod(st.method, func(g term.GVID) {
				if g.Object == o {
					cands = append(cands, g)
				}
			})
		} else {
			x.base.ForEachVIDWithMethod(st.method, func(g term.GVID) { cands = append(cands, g) })
		}
		for _, g := range cands {
			if !st.base.match(fr, g.Object) {
				continue
			}
			if err := x.matchApp(st, fr, g, k); err != nil {
				x.putVIDs(cands)
				return err
			}
		}
		x.putVIDs(cands)
		return nil

	default: // accessScan
		// No candidate buffer: matching only reads the base (step 1 logs its
		// updates and a query changes nothing), so each candidate is matched
		// as the walk hands it out. The walk cannot stop early; the first
		// error latches and the remaining callbacks return at once.
		var err error
		x.base.ForEachVIDWith(st.path, st.method, func(g term.GVID) {
			if err == nil && st.base.match(fr, g.Object) {
				err = x.matchApp(st, fr, g, k)
			}
		})
		return err
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
	return term.MethodKey{Method: method, Args: term.EncodeOIDs(x.args)}
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
			r := st.result.value(fr)
			if s.Has(key, r) {
				return k(key, r)
			}
			return nil
		}
		results := x.getOIDs()
		s.ForEachResult(key, func(r term.OID) { results = append(results, r) })
		for _, r := range results {
			fr[st.result.slot] = r
			if err := k(key, r); err != nil {
				x.putOIDs(results)
				return err
			}
		}
		x.putOIDs(results)
		return nil
	}
	// Arguments contain binding slots: scan all applications of the method
	// on g and unify per candidate.
	apps := x.getKRs()
	s.ForEachOfMethod(st.method, func(key term.MethodKey, r term.OID) {
		apps = append(apps, keyResult{key, r})
	})
	for _, a := range apps {
		if !x.matchFactArgs(st, fr, a.key.Args) {
			continue
		}
		if !st.result.match(fr, a.r) {
			continue
		}
		if err := k(a.key, a.r); err != nil {
			x.putKRs(apps)
			return err
		}
	}
	x.putKRs(apps)
	return nil
}

// execDel enumerates a positive del-term: del[v].m -> r holds iff
// v*.m -> r is in the base, del(v) exists, and del(v).m -> r is absent.
func (x *executor) execDel(st *cstep, fr []term.OID, k func() error) error {
	if st.acc == accessLookup {
		w := term.GVID{Object: st.base.value(fr), Path: st.tpath}
		return x.delOn(st, fr, w, k)
	}
	cands := x.getVIDs()
	x.base.ForEachVIDWith(st.tpath, term.ExistsMethod, func(g term.GVID) { cands = append(cands, g) })
	for _, w := range cands {
		if !st.base.match(fr, w.Object) {
			continue
		}
		if err := x.delOn(st, fr, w, k); err != nil {
			x.putVIDs(cands)
			return err
		}
	}
	x.putVIDs(cands)
	return nil
}

func (x *executor) delOn(st *cstep, fr []term.OID, w term.GVID, k func() error) error {
	if !x.base.Exists(w) {
		return nil
	}
	v := term.GVID{Object: w.Object, Path: w.Path[:w.Path.Len()-1]}
	vstar, ok := x.readBase(v).VStar(v)
	if !ok {
		return nil
	}
	return x.matchAppKR(st, fr, vstar, func(key term.MethodKey, r term.OID) error {
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
	cands := x.getVIDs()
	x.base.ForEachVIDWith(st.tpath, st.method, func(g term.GVID) { cands = append(cands, g) })
	for _, w := range cands {
		if !st.base.match(fr, w.Object) {
			continue
		}
		if err := x.modOn(st, fr, w, k); err != nil {
			x.putVIDs(cands)
			return err
		}
	}
	x.putVIDs(cands)
	return nil
}

func (x *executor) modOn(st *cstep, fr []term.OID, w term.GVID, k func() error) error {
	v := term.GVID{Object: w.Object, Path: w.Path[:w.Path.Len()-1]}
	vstar, ok := x.readBase(v).VStar(v)
	if !ok {
		return nil
	}
	return x.matchAppKR(st, fr, vstar, func(key term.MethodKey, r term.OID) error {
		newResults := x.getOIDs()
		x.base.ForEachResult(w, key, func(o term.OID) { newResults = append(newResults, o) })
		for _, rp := range newResults {
			if !st.newResult.match(fr, rp) {
				continue
			}
			if r != rp && x.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}) {
				continue
			}
			if err := k(); err != nil {
				x.putOIDs(newResults)
				return err
			}
		}
		x.putOIDs(newResults)
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
	found := false
	x.base.ForEachVIDWithMethod(st.method, func(g term.GVID) {
		if found || g.Object != o {
			return
		}
		if x.base.Has(term.Fact{V: g, Method: key.Method, Args: key.Args, Result: r}) {
			found = true
		}
	})
	if found {
		return nil
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
		vstar, ok := x.base.VStar(v)
		if !ok {
			return nil
		}
		ups := x.ups[:0]
		x.base.ForEachFactOf(vstar, func(f term.Fact) {
			if f.IsExists() {
				return
			}
			ups = append(ups, Update{Kind: term.Del, V: v, Key: f.Key(), R: f.Result})
		})
		slices.SortFunc(ups, func(a, b Update) int { return a.compare(b) })
		x.ups = ups[:0]
		for _, u := range ups {
			if err := onFire(u); err != nil {
				return err
			}
		}
		return nil
		// x.ups keeps the grown capacity for the next delete-all head.
	}
	key := x.resolveKey(h.keyStatic, h.key, h.method, h.args, fr)
	res := h.result.value(fr)
	u := Update{Kind: h.kind, V: v, Key: key, R: res}
	switch h.kind {
	case term.Del, term.Mod:
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
