package eval

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"verlog/internal/term"
	"verlog/internal/unify"
)

// Update is a fired ground update: an element of the set T¹_P(I) of
// Section 3. For Mod, R is the old result and R2 the new one.
type Update struct {
	Kind term.UpdateKind
	V    term.GVID // the version the update is performed on (inside [...])
	Key  term.MethodKey
	R    term.OID
	R2   term.OID
}

// Target returns the version resulting from the update, Kind(V).
func (u Update) Target() term.GVID { return u.V.Push(u.Kind) }

func (u Update) String() string {
	switch u.Kind {
	case term.Mod:
		return fmt.Sprintf("mod[%s].%s -> (%s, %s)", u.V, u.Key, u.R, u.R2)
	default:
		return fmt.Sprintf("%s[%s].%s -> %s", u.Kind, u.V, u.Key, u.R)
	}
}

// compare orders updates for deterministic traces; distinct updates never
// compare equal. Argument tuples are ordered by their encodings — any total
// order does, and this one decodes nothing.
func (u Update) compare(v Update) int {
	if c := u.V.Compare(v.V); c != 0 {
		return c
	}
	if u.Kind != v.Kind {
		if u.Kind < v.Kind {
			return -1
		}
		return 1
	}
	if u.Key.Method != v.Key.Method {
		if u.Key.Method < v.Key.Method {
			return -1
		}
		return 1
	}
	if c := u.Key.Args.CompareEncoded(v.Key.Args); c != 0 {
		return c
	}
	if c := u.R.Compare(v.R); c != 0 {
		return c
	}
	return u.R2.Compare(v.R2)
}

// step1Rule enumerates the rule's body matches against m's base and emits
// every fired ground update that also passes the head-position truth test
// of Section 3. The onFire callback receives the update (one per expanded
// delete-all entry); matched counts complete body matches (i.e. fireHead
// invocations) for the per-rule stats. With deltaPos >= 0, delta is the
// bucket of facts the literal at that plan position reads (plan.deltaKeys).
func (e *engine) step1Rule(m *matcher, ri int, deltaPos int, delta []term.Fact, matched *int64, onFire func(u Update) error) error {
	r := e.prog.Rules[ri]
	pl := e.plans[ri]
	// With a delta restriction, the restricted literal joins first — the
	// essence of semi-naive evaluation — and the remaining literals follow
	// in plan order. Moving a positive generator to the front only adds
	// bindings, so every later filter still has its variables bound.
	order := pl.order
	if deltaPos >= 0 {
		order = make([]int, 0, len(pl.order))
		order = append(order, pl.order[deltaPos])
		for i, li := range pl.order {
			if i != deltaPos {
				order = append(order, li)
			}
		}
	}
	s := unify.Subst{}
	var tr unify.Trail
	var rec func(step int) error
	rec = func(step int) error {
		if step == len(order) {
			*matched++
			return e.fireHead(r, s, onFire)
		}
		l := r.Body[order[step]]
		if deltaPos >= 0 && step == 0 {
			return e.matchLiteralDelta(l, delta, s, &tr, func() error {
				return rec(step + 1)
			})
		}
		return m.matchLiteral(l, s, &tr, func() error {
			return rec(step + 1)
		})
	}
	if err := rec(0); err != nil {
		return fmt.Errorf("eval: rule %s: %w", r.Label(ri), err)
	}
	return nil
}

// fireHead grounds the rule head under s, applies the head-position truth
// definitions, and emits the resulting updates.
func (e *engine) fireHead(r term.Rule, s unify.Subst, onFire func(u Update) error) error {
	v, ok := s.ResolveVID(r.Head.V)
	if !ok {
		return fmt.Errorf("unbound version base in head %s", r.Head)
	}
	if r.Head.All {
		// del[v].* expands into one delete per method application of v*,
		// excluding the undeletable exists method.
		vstar, ok := e.base.VStar(v)
		if !ok {
			return nil
		}
		var ups []Update
		e.base.ForEachFactOf(vstar, func(f term.Fact) {
			if f.IsExists() {
				return
			}
			ups = append(ups, Update{Kind: term.Del, V: v, Key: f.Key(), R: f.Result})
		})
		slices.SortFunc(ups, func(a, b Update) int { return a.compare(b) })
		for _, u := range ups {
			if err := onFire(u); err != nil {
				return err
			}
		}
		return nil
	}
	key, ok := resolveKey(r.Head.App, s)
	if !ok {
		return fmt.Errorf("unbound argument in head %s", r.Head)
	}
	res, ok := s.ResolveOID(r.Head.App.Result)
	if !ok {
		return fmt.Errorf("unbound result in head %s", r.Head)
	}
	u := Update{Kind: r.Head.Kind, V: v, Key: key, R: res}
	switch r.Head.Kind {
	case term.Ins:
		// An insert in head position is always true.
	case term.Del, term.Mod:
		// del[v].m -> r (and mod[v].m -> (r, r')) are true in head position
		// iff v*.m -> r is in the base.
		vstar, ok := e.base.VStar(v)
		if !ok {
			return nil
		}
		if !e.base.Has(term.Fact{V: vstar, Method: key.Method, Args: key.Args, Result: res}) {
			return nil
		}
		if r.Head.Kind == term.Mod {
			r2, ok := s.ResolveOID(r.Head.NewResult)
			if !ok {
				return fmt.Errorf("unbound new result in head %s", r.Head)
			}
			u.R2 = r2
		}
	}
	return onFire(u)
}

// matchLiteralDelta matches a delta-seedable positive literal against its
// (path, method) bucket of the facts the previous iteration added, instead
// of the full base.
func (e *engine) matchLiteralDelta(l term.Literal, delta []term.Fact, s unify.Subst, tr *unify.Trail, k func() error) error {
	// The bucket fixes path and method; base, arguments and result remain.
	var base term.ObjTerm
	var app term.MethodApp
	switch a := l.Atom.(type) {
	case term.VersionAtom:
		base, app = a.V.Base, a.App
	case term.UpdateAtom:
		if a.Kind != term.Ins {
			return fmt.Errorf("eval: literal %s is not delta-seedable", l)
		}
		base, app = a.V.Base, a.App
	default:
		return fmt.Errorf("eval: literal %s is not delta-seedable", l)
	}
	mark := tr.Mark()
	for _, f := range delta {
		if len(app.Args) != f.Args.Len() {
			continue
		}
		if tr.MatchObj(s, base, f.V.Object) &&
			tr.MatchArgs(s, app.Args, f.Args.Decode()) &&
			tr.MatchObj(s, app.Result, f.Result) {
			if err := k(); err != nil {
				tr.Undo(s, mark)
				return err
			}
		}
		tr.Undo(s, mark)
	}
	return nil
}

// fireTask is one unit of step-1 matching: a rule evaluated in full
// (pos < 0) or seeded from one of its delta buckets — pos is then the
// compiled variant's index, or the interpreter's plan position, and delta
// the bucket's facts.
type fireTask struct {
	ri, pos int
	delta   []term.Fact
}

// fireStat is the cost of one step-1 task: when it started, how long the
// matching took, how many complete body matches it enumerated and how many
// updates it emitted (duplicates of known updates included).
type fireStat struct {
	start   time.Time
	dur     time.Duration
	matched int64
	emitted int
}

// step1 runs one task, feeding every emitted update to onFire as it fires.
// When tracing (Options.Span set) the task runs under runtime/pprof labels
// (stratum, rule) so CPU profiles attribute samples to rules; the
// allocation per task is acceptable because tracing is opt-in per run.
func (e *engine) step1(si int, t fireTask, onFire func(Update) error) (fireStat, error) {
	st := fireStat{start: time.Now()}
	match := func() error {
		if e.compiled == nil {
			return e.step1Rule(e.m, t.ri, t.pos, t.delta, &st.matched, onFire)
		}
		cr := e.compiled.rules[t.ri]
		steps := cr.steps
		if t.pos >= 0 {
			steps = cr.deltaSteps[t.pos]
		}
		if err := e.x.run(cr, steps, t.delta, &st.matched, onFire); err != nil {
			return fmt.Errorf("eval: rule %s: %w", e.labels[t.ri], err)
		}
		return nil
	}
	var err error
	if e.opts.Span != nil {
		labels := pprof.Labels("stratum", strconv.Itoa(si+1), "rule", e.labels[t.ri])
		pprof.Do(context.Background(), labels, func(context.Context) { err = match() })
	} else {
		err = match()
	}
	st.dur = time.Since(st.start)
	return st, err
}
