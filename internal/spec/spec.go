// Package spec is the paper written down, for tests to hold the engine
// against: the truth of version- and update-terms under a substitution
// (§3; the substitution and its built-ins are in subst.go), the three-step T_P
// applied naively stratum by stratum (§3–§4), the version-linearity check and
// the updated object base ob' (§5), over a plain set of facts. Every question
// is answered by walking that set: no index, overlay, shared state, delta or
// planner, and no code of package eval. The strata are strata.Stratify's,
// checked against (a)–(d) first. Nothing that ships may import it (specimport).
package spec

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"verlog/internal/strata"
	"verlog/internal/term"
	"verlog/internal/unify"
)

// Facts is an object base: a set of ground version-terms.
type Facts map[term.Fact]bool

// The reasons an evaluation is refused for; errors.Is tells which.
var (
	ErrUnsafe         = errors.New("spec: unsafe rule")
	ErrUnstratifiable = errors.New("spec: not stratifiable")
	ErrBadStrata      = errors.New("spec: the stratification violates §4")
	ErrLinearity      = errors.New("spec: not version-linear")
	ErrIterationLimit = errors.New("spec: iteration limit")
	ErrEvaluation     = errors.New("spec: evaluation error")
)

// vstar is v*, the largest subterm of v whose version exists, i.e. has exists.
func (I Facts) vstar(v term.GVID) (vs term.GVID, ok bool) {
	for f := range I {
		if f.IsExists() && isSubtermOf(f.V, v) && (!ok || f.V.Path.Len() > vs.Path.Len()) {
			vs, ok = f.V, true
		}
	}
	return vs, ok
}

// ground instantiates v.m@args -> r under s.
func ground(v term.GVID, app term.MethodApp, s subst) term.Fact {
	args := make([]term.OID, len(app.Args))
	for i, a := range app.Args {
		args[i], _ = s.resolveOID(a)
	}
	r, _ := s.resolveOID(app.Result)
	return term.Fact{V: v, Method: app.Method, Args: term.EncodeOIDs(args), Result: r}
}

// holds decides a body atom all of whose variables s binds, by §3's truth in
// body position (a binding equality X = e is the exception: it extends s).
func (I Facts) holds(a term.Atom, s subst) (bool, error) {
	switch a := a.(type) {
	case term.BuiltinAtom:
		return solveBuiltin(a, s)
	case term.VersionAtom:
		if o, _ := s.resolveOID(a.V.Base); !a.V.Any {
			return I[ground(term.GVID{Object: o, Path: a.V.Path}, a.App, s)], nil
		}
		return len(I.candidates(a, s)) > 0, nil // any(o): some version of o
	case term.UpdateAtom:
		v, _ := s.resolveVID(a.V)
		w := v.Push(a.Kind)
		f := ground(w, a.App, s) // kind(v).m -> r
		if a.Kind == term.Ins {
			return I[f], nil
		}
		vs, ok := I.vstar(v)
		if !ok || !I[f.WithV(vs)] { // v*.m -> r
			return false, nil
		}
		if ws, _ := I.vstar(w); a.Kind == term.Del {
			return ws == w && !I[f], nil // del(v) exists, without r
		}
		g := f
		g.Result, _ = s.resolveOID(a.NewResult)
		return I[g] && (g == f || !I[f]), nil // mod(v).m -> r', and r gone unless r = r'
	}
	return false, nil
}

// candidates lists the extensions of s binding the variables of a positive
// version- or update-term to what a fact of I offers; holds says which are true.
func (I Facts) candidates(a term.Atom, s subst) (out []subst) {
	if u, ok := a.(term.UpdateAtom); ok && u.Kind == term.Ins {
		a = term.VersionAtom{V: u.Target(), App: u.App}
	} else if ok { // del, mod: v* is some version of the object, and so is what has r'
		a = term.VersionAtom{V: term.VersionID{Base: u.V.Base, Any: true}, App: u.App}
		if b := a.(term.VersionAtom); u.NewResult != nil {
			b.App.Result = u.NewResult
			for _, t := range I.candidates(a, s) {
				out = append(out, I.candidates(b, t)...)
			}
			return out
		}
	}
	p := a.(term.VersionAtom)
	for f := range I {
		if f.Method != p.App.Method || !p.V.Any && f.V.Path != p.V.Path {
			continue
		}
		if t := s.clone(); t.matchObj(p.V.Base, f.V.Object) && t.matchArgs(p.App.Args, f.Args.Decode()) && t.matchObj(p.App.Result, f.Result) {
			out = append(out, t)
		}
	}
	return out
}

func isFilter(l term.Literal) bool { _, b := l.Atom.(term.BuiltinAtom); return l.Neg || b }

func varsOf(l term.Literal) []term.Var {
	return slices.Collect(maps.Keys((term.Rule{Body: []term.Literal{l}}).Vars()))
}

// schedule orders a body left to right, except that a built-in or negated
// literal runs as soon as its variables are bound (a binding equality X = e
// as soon as e's are) and not before. If one waits for ever the body is unsafe.
func schedule(body []term.Literal) ([]int, error) {
	bound := map[term.Var]bool{}
	allBound := func(vs []term.Var) bool {
		return !slices.ContainsFunc(vs, func(v term.Var) bool { return !bound[v] })
	}
	ready := func(l term.Literal) bool {
		if b, ok := l.Atom.(term.BuiltinAtom); ok && !l.Neg && b.Op == term.OpEq {
			for _, e := range [][2]term.Expr{{b.L, b.R}, {b.R, b.L}} {
				if _, bare := e[0].(term.VarExpr); bare && allBound(term.ExprVars(e[1], nil)) {
					return true
				}
			}
		}
		return !isFilter(l) || allBound(varsOf(l))
	}
	var order []int
	for range body {
		pick := -1
		for i, l := range body {
			if !slices.Contains(order, i) && ready(l) && (pick < 0 || isFilter(l) && !isFilter(body[pick])) {
				pick = i
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("%w: in %v a variable of the head, a built-in or a negated literal is never bound", ErrUnsafe, body)
		}
		order = append(order, pick)
		for _, v := range varsOf(body[pick]) {
			bound[v] = true
		}
	}
	return order, nil
}

// solve lists the extensions of s that make body[order[0]], body[order[1]], …
// true with respect to I, one per way of doing so.
func (I Facts) solve(body []term.Literal, order []int, s subst) (rows []subst, err error) {
	if len(order) == 0 {
		return []subst{s}, nil
	}
	l := body[order[0]]
	cands := []subst{s.clone()}
	if !isFilter(l) {
		cands = I.candidates(l.Atom, s)
	}
	for _, t := range cands {
		if ok, err := I.holds(l.Atom, t); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrEvaluation, err)
		} else if ok != l.Neg {
			more, err := I.solve(body, order[1:], t)
			if err != nil {
				return nil, err
			}
			rows = append(rows, more...)
		}
	}
	return rows, nil
}

// Query answers a conjunction of literals: a substitution per way it is true.
func Query(I Facts, body []term.Literal) ([]subst, error) {
	order, err := schedule(body)
	if err != nil {
		return nil, err
	}
	return I.solve(body, order, subst{})
}

// Update is a fired ground update-term of T¹_P(I); a modify takes R to R2.
type Update struct {
	Kind   term.UpdateKind
	V      term.GVID
	Method string
	Args   term.Args
	R, R2  term.OID
}

func (u Update) fact(r term.OID) term.Fact {
	return term.Fact{V: u.V.Push(u.Kind), Method: u.Method, Args: u.Args, Result: r}
}

// step1 is T¹_P(I): the head instances of the rules whose body is true and
// which are true in head position themselves — an insert always, a delete or
// modify iff v*.m -> r is in I; del[v].* deletes all of v* but exists.
func (I Facts) step1(rules []term.Rule, stratum []int) (map[Update]bool, error) {
	T1 := map[Update]bool{}
	for _, ri := range stratum {
		h := rules[ri].Head
		rows, err := Query(I, rules[ri].Body)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", rules[ri].Label(ri), err)
		}
		for _, s := range rows {
			v, _ := s.resolveVID(h.V)
			vs, live := I.vstar(v)
			f := ground(vs, h.App, s)
			u := Update{Kind: h.Kind, V: v, Method: f.Method, Args: f.Args, R: f.Result}
			if h.Kind == term.Mod {
				u.R2, _ = s.resolveOID(h.NewResult)
			}
			if !h.All && (h.Kind == term.Ins || live && I[f]) {
				T1[u] = true
			} else if h.All && live {
				for g := range I {
					if g.V == vs && !g.IsExists() {
						T1[Update{Kind: term.Del, V: v, Method: g.Method, Args: g.Args, R: g.Result}] = true
					}
				}
			}
		}
	}
	return T1, nil
}

// apply is steps 2 and 3. A version w = α(v) is relevant when T1 holds an
// update α[v]…, and active when it exists already. Step 2 gives a relevant
// version its own state if it is active and a copy of the state of v* if it
// is not (the frame: nothing else is copied) — the state of w*, that is; with
// no v* at all it is a new object and starts from exists alone, our
// extension. Other versions carry over. Step 3 takes out the results deletes
// and modifies name, then puts in those of inserts and modifies.
func (I Facts) apply(T1 map[Update]bool) Facts {
	out, relevant := Facts{}, map[term.GVID]bool{}
	for u := range T1 {
		w := u.V.Push(u.Kind)
		if relevant[w] {
			continue
		}
		relevant[w] = true
		src, ok := I.vstar(w)
		if !ok {
			out[term.NewFact(w, term.ExistsMethod, w.Object)] = true
		}
		for f := range I {
			if ok && f.V == src {
				out[f.WithV(w)] = true
			}
		}
	}
	for f := range I {
		if !relevant[f.V] {
			out[f] = true
		}
	}
	for u := range T1 {
		if u.Kind != term.Ins {
			delete(out, u.fact(u.R))
		}
	}
	for u := range T1 {
		if u.Kind == term.Ins {
			out[u.fact(u.R)] = true
		} else if u.Kind == term.Mod {
			out[u.fact(u.R2)] = true
		}
	}
	return out
}

// linear is §5's check: the versions of one object form a subterm chain.
func (I Facts) linear() error {
	for f := range I {
		for g := range I {
			if f.V.Object == g.V.Object && !subtermComparable(f.V, g.V) {
				return fmt.Errorf("%w: %s and %s are not subterm-comparable", ErrLinearity, f.V, g.V)
			}
		}
	}
	return nil
}

// final is ob' (§5): every object takes the applications of its final
// version — the largest, the versions being a chain — and exists -> itself;
// an object whose final version holds exists alone is gone.
func (I Facts) final() Facts {
	out, last := Facts{}, map[term.OID]term.GVID{}
	for f := range I {
		if d, seen := last[f.V.Object]; !seen || f.V.Path.Len() > d.Path.Len() {
			last[f.V.Object] = f.V
		}
	}
	for f := range I {
		if o := (term.GVID{Object: f.V.Object}); f.V == last[o.Object] && !f.IsExists() {
			out[f.WithV(o)], out[term.NewFact(o, term.ExistsMethod, o.Object)] = true, true
		}
	}
	return out
}

// Outcome is what an update-program makes of an object base.
type Outcome struct {
	Result Facts           // result(P): the fixpoint, every version in it
	Final  Facts           // ob'
	Fired  map[Update]bool // every update some application of T_P fired
}

// Run evaluates p on ob: the rules of each stratum are applied — all of T_P,
// to the whole of I — until I stops changing or maxIter applications were not
// enough. A head is safe if it could be a negated literal of its body: it
// binds nothing and needs everything bound.
func Run(ob Facts, p *term.Program, maxIter int) (*Outcome, error) {
	a, err := strata.Stratify(p)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnstratifiable, err)
	}
	err = checkStrata(p, a.Level)
	for _, r := range p.Rules {
		if err == nil {
			_, err = schedule(append(slices.Clip(r.Body), term.Literal{Neg: true, Atom: r.Head}))
		}
	}
	if err != nil {
		return nil, err
	}
	out := &Outcome{Result: maps.Clone(ob), Fired: map[Update]bool{}}
	for si, stratum := range a.Strata {
		for n, done := 1, false; !done; n++ {
			if err := out.Result.linear(); err != nil {
				return nil, err
			}
			if n > maxIter {
				return nil, fmt.Errorf("%w: stratum %d has no fixpoint after %d applications of T_P", ErrIterationLimit, si+1, maxIter)
			}
			T1, err := out.Result.step1(p.Rules, stratum)
			if err != nil {
				return nil, err
			}
			maps.Copy(out.Fired, T1)
			next := out.Result.apply(T1)
			done, out.Result = maps.Equal(next, out.Result), next
		}
	}
	out.Final = out.Result.final()
	return out, out.Result.linear() // an empty program asks, too
}

// checkStrata holds a stratification against §4, for every rule r and every
// rule q, whose head α[V'] writes the version α(V'); unification is sorted.
// (a) α(V') unifies with a subterm of the V in r's head ⇒ q strictly lower;
// (b) … with a subterm of a version-id-term of r's body ⇒ q not higher,
// (c) and strictly lower when that literal is negated;
// (d) r's body has del(V) or mod(V), and α(V') is a del, resp. mod, that
// unifies with it ⇒ q strictly lower.
func checkStrata(p *term.Program, level []int) (err error) {
	for ri, r := range p.Rules {
		check := func(cond string, strict bool, reads term.VersionID) {
			for qi, q := range p.Rules {
				w := q.Head.Target()
				if unify.VersionIDs(w, reads) && (level[qi] > level[ri] || strict && level[qi] == level[ri]) {
					err = fmt.Errorf("%w: condition (%s): %s in stratum %d writes %s, which %s in stratum %d reads as %s",
						ErrBadStrata, cond, q.Label(qi), level[qi]+1, w, r.Label(ri), level[ri]+1, reads)
				}
			}
		}
		for _, sub := range r.Head.V.Subterms() {
			check("a", true, sub)
		}
		for _, l := range r.Body {
			var v term.VersionID
			if a, ok := l.Atom.(term.UpdateAtom); ok {
				v = a.Target()
			} else if a, ok := l.Atom.(term.VersionAtom); ok {
				v = a.V
			} else {
				continue
			}
			for _, sub := range v.Subterms() {
				check(map[bool]string{false: "b", true: "c"}[l.Neg], l.Neg, sub)
			}
			if k := v.Path.Outer(); k == term.Del || k == term.Mod {
				check("d", true, v)
			}
		}
	}
	return err
}
