package eval

import (
	"errors"
	"fmt"

	"verlog/internal/builtin"
	"verlog/internal/objectbase"
	"verlog/internal/term"
	"verlog/internal/unify"
)

// errStopEnum aborts an enumeration early once an existential check has
// its witness; it never escapes the matcher.
var errStopEnum = errors.New("eval: stop enumeration")

// matcher enumerates the substitutions that make body literals true with
// respect to an object base, implementing the body-position truth
// definitions of Section 3.
//
// Matching works destructively on one shared substitution with a
// backtracking trail: bindings made while exploring a branch are undone
// when the branch is exhausted. Continuations therefore must read the
// substitution immediately and never retain it.
//
// A matcher carries scratch free-lists for the candidate slices each
// literal enumeration collects before invoking its continuation.
// Enumerations nest (the continuation matches the next literal), so the
// free-lists work as stacks: an enumeration pops a buffer, recurses, and
// pushes it back when done. A matcher is therefore single-goroutine
// state.
type matcher struct {
	base *objectbase.Base
	vids [][]term.GVID
	oids [][]term.OID
	krs  [][]keyResult
}

// keyResult is one (method key, result) application collected while
// scanning a method with unbound arguments.
type keyResult struct {
	key term.MethodKey
	r   term.OID
}

func newMatcher(base *objectbase.Base) *matcher { return &matcher{base: base} }

func (m *matcher) getVIDs() []term.GVID {
	if n := len(m.vids); n > 0 {
		buf := m.vids[n-1]
		m.vids = m.vids[:n-1]
		return buf
	}
	return nil
}

func (m *matcher) putVIDs(buf []term.GVID) { m.vids = append(m.vids, buf[:0]) }

func (m *matcher) getOIDs() []term.OID {
	if n := len(m.oids); n > 0 {
		buf := m.oids[n-1]
		m.oids = m.oids[:n-1]
		return buf
	}
	return nil
}

func (m *matcher) putOIDs(buf []term.OID) { m.oids = append(m.oids, buf[:0]) }

func (m *matcher) getKRs() []keyResult {
	if n := len(m.krs); n > 0 {
		buf := m.krs[n-1]
		m.krs = m.krs[:n-1]
		return buf
	}
	return nil
}

func (m *matcher) putKRs(buf []keyResult) { m.krs = append(m.krs, buf[:0]) }

// matchLiteral calls k once for every extension of s under which l is
// true. Bindings added for a branch are visible inside k and removed
// before matchLiteral returns.
func (m *matcher) matchLiteral(l term.Literal, s unify.Subst, tr *unify.Trail, k func() error) error {
	if l.Neg {
		ok, err := m.groundTruth(l.Atom, s, tr)
		if err != nil {
			return err
		}
		if !ok {
			return k()
		}
		return nil
	}
	switch a := l.Atom.(type) {
	case term.VersionAtom:
		return m.matchVersionPattern(a.V, a.App, s, tr, k)
	case term.UpdateAtom:
		switch a.Kind {
		case term.Ins:
			// ins[v].m -> r is true iff ins(v).m -> r holds.
			return m.matchVersionPattern(a.V.Push(term.Ins), a.App, s, tr, k)
		case term.Del:
			return m.matchDelBody(a, s, tr, k)
		case term.Mod:
			return m.matchModBody(a, s, tr, k)
		default:
			return fmt.Errorf("eval: invalid update kind %v", a.Kind)
		}
	case term.BuiltinAtom:
		mark := tr.Mark()
		ok, err := builtin.SolveTrail(a, s, tr)
		if err != nil {
			tr.Undo(s, mark)
			return err
		}
		if ok {
			err = k()
		}
		tr.Undo(s, mark)
		return err
	default:
		return fmt.Errorf("eval: unknown atom type %T", l.Atom)
	}
}

// forEachBase enumerates candidate ground bindings of the version pattern's
// base. With a bound base it yields the single resolved VID; otherwise it
// scans the index of VIDs that have the given method on the pattern's path.
func (m *matcher) forEachBase(v term.VersionID, method string, s unify.Subst, tr *unify.Trail, k func(g term.GVID) error) error {
	if v.Any {
		return m.forEachAnyVersion(v, method, s, tr, k)
	}
	if g, ok := s.ResolveVID(v); ok {
		return k(g)
	}
	cands := m.getVIDs()
	m.base.ForEachVIDWith(v.Path, method, func(g term.GVID) { cands = append(cands, g) })
	mark := tr.Mark()
	for _, g := range cands {
		if tr.MatchObj(s, v.Base, g.Object) {
			if err := k(g); err != nil {
				tr.Undo(s, mark)
				m.putVIDs(cands)
				return err
			}
		}
		tr.Undo(s, mark)
	}
	m.putVIDs(cands)
	return nil
}

// forEachAnyVersion enumerates candidate versions for the any(base)
// wildcard: every version, at any path, of any object matching base that
// carries the method. The wildcard is existential — k may fire several
// times for different versions of the same object.
func (m *matcher) forEachAnyVersion(v term.VersionID, method string, s unify.Subst, tr *unify.Trail, k func(g term.GVID) error) error {
	cands := m.getVIDs()
	if o, ok := s.ResolveOID(v.Base); ok {
		m.base.ForEachVIDWithMethod(method, func(g term.GVID) {
			if g.Object == o {
				cands = append(cands, g)
			}
		})
	} else {
		m.base.ForEachVIDWithMethod(method, func(g term.GVID) { cands = append(cands, g) })
	}
	mark := tr.Mark()
	for _, g := range cands {
		if tr.MatchObj(s, v.Base, g.Object) {
			if err := k(g); err != nil {
				tr.Undo(s, mark)
				m.putVIDs(cands)
				return err
			}
		}
		tr.Undo(s, mark)
	}
	m.putVIDs(cands)
	return nil
}

// matchVersionPattern enumerates matches of v.m@args -> r against the base.
func (m *matcher) matchVersionPattern(v term.VersionID, app term.MethodApp, s unify.Subst, tr *unify.Trail, k func() error) error {
	return m.forEachBase(v, app.Method, s, tr, func(g term.GVID) error {
		return m.matchApp(g, app, s, tr, k)
	})
}

// matchApp enumerates matches of the method application on the ground VID
// g, extending s through the trail.
func (m *matcher) matchApp(g term.GVID, app term.MethodApp, s unify.Subst, tr *unify.Trail, k func() error) error {
	return m.matchAppOn(g, app, s, tr, func(term.MethodKey, term.OID) error { return k() })
}

// resolveKey resolves the method key of app under s; ok is false when an
// argument is unbound.
func resolveKey(app term.MethodApp, s unify.Subst) (term.MethodKey, bool) {
	if len(app.Args) == 0 {
		return term.MethodKey{Method: app.Method}, true
	}
	args := make([]term.OID, len(app.Args))
	for i, a := range app.Args {
		o, ok := s.ResolveOID(a)
		if !ok {
			return term.MethodKey{}, false
		}
		args[i] = o
	}
	return term.MethodKey{Method: app.Method, Args: term.EncodeOIDs(args)}, true
}

// matchAppOn enumerates applications of app on the ground VID g, invoking
// k with the resolved key and result while the bindings are in place.
func (m *matcher) matchAppOn(g term.GVID, app term.MethodApp, s unify.Subst, tr *unify.Trail, k func(key term.MethodKey, r term.OID) error) error {
	if key, ok := resolveKey(app, s); ok {
		if r, ok := s.ResolveOID(app.Result); ok {
			if m.base.Has(term.Fact{V: g, Method: key.Method, Args: key.Args, Result: r}) {
				return k(key, r)
			}
			return nil
		}
		results := m.getOIDs()
		m.base.ForEachResult(g, key, func(r term.OID) { results = append(results, r) })
		mark := tr.Mark()
		for _, r := range results {
			if tr.MatchObj(s, app.Result, r) {
				if err := k(key, r); err != nil {
					tr.Undo(s, mark)
					m.putOIDs(results)
					return err
				}
			}
			tr.Undo(s, mark)
		}
		m.putOIDs(results)
		return nil
	}
	// Arguments contain unbound variables: scan all applications of the
	// method on g.
	apps := m.getKRs()
	m.base.ForEachOfMethod(g, app.Method, func(key term.MethodKey, r term.OID) {
		apps = append(apps, keyResult{key, r})
	})
	mark := tr.Mark()
	for _, x := range apps {
		if tr.MatchArgs(s, app.Args, x.key.Args.Decode()) && tr.MatchObj(s, app.Result, x.r) {
			if err := k(x.key, x.r); err != nil {
				tr.Undo(s, mark)
				m.putKRs(apps)
				return err
			}
		}
		tr.Undo(s, mark)
	}
	m.putKRs(apps)
	return nil
}

// matchDelBody enumerates matches of a positive del-update-term in body
// position: del[v].m -> r holds iff v*.m -> r is in the base, the version
// del(v) exists, and del(v).m -> r is not in the base (Section 3).
func (m *matcher) matchDelBody(a term.UpdateAtom, s unify.Subst, tr *unify.Trail, k func() error) error {
	// Candidate bases come from the exists applications of del(v): a true
	// del-term requires the deleted version to exist.
	target := a.V.Push(term.Del)
	return m.forEachBase(target, term.ExistsMethod, s, tr, func(w term.GVID) error {
		if !m.base.Exists(w) {
			return nil
		}
		v := term.GVID{Object: w.Object, Path: w.Path[:w.Path.Len()-1]}
		vstar, ok := m.base.VStar(v)
		if !ok {
			return nil
		}
		// Enumerate v*.m@args -> r, then require del(v).m@args -> r absent.
		return m.matchAppOn(vstar, a.App, s, tr, func(key term.MethodKey, r term.OID) error {
			if m.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}) {
				return nil
			}
			return k()
		})
	})
}

// matchModBody enumerates matches of a positive mod-update-term in body
// position: mod[v].m -> (r, r') holds iff v*.m -> r is in the base,
// mod(v).m -> r' is in the base, and — when r differs from r' —
// mod(v).m -> r is absent (Section 3; for r = r' the presence of
// mod(v).m -> r is exactly the second condition).
func (m *matcher) matchModBody(a term.UpdateAtom, s unify.Subst, tr *unify.Trail, k func() error) error {
	target := a.V.Push(term.Mod)
	return m.forEachBase(target, a.App.Method, s, tr, func(w term.GVID) error {
		v := term.GVID{Object: w.Object, Path: w.Path[:w.Path.Len()-1]}
		vstar, ok := m.base.VStar(v)
		if !ok {
			return nil
		}
		return m.matchAppOn(vstar, a.App, s, tr, func(key term.MethodKey, r term.OID) error {
			// r is bound; now enumerate r' over mod(v).m@args.
			newResults := m.getOIDs()
			m.base.ForEachResult(w, key, func(x term.OID) { newResults = append(newResults, x) })
			mark := tr.Mark()
			for _, rp := range newResults {
				if !tr.MatchObj(s, a.NewResult, rp) {
					tr.Undo(s, mark)
					continue
				}
				if r != rp && m.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}) {
					tr.Undo(s, mark)
					continue
				}
				if err := k(); err != nil {
					tr.Undo(s, mark)
					m.putOIDs(newResults)
					return err
				}
				tr.Undo(s, mark)
			}
			m.putOIDs(newResults)
			return nil
		})
	})
}

// groundTruth decides a fully bound atom, for negated literals. It errors
// on unbound variables, which safe rules with a valid plan never produce.
func (m *matcher) groundTruth(a term.Atom, s unify.Subst, tr *unify.Trail) (bool, error) {
	switch x := a.(type) {
	case term.VersionAtom:
		if x.V.Any {
			// The wildcard is existential: a negated any(...) literal is
			// true when no version satisfies the application.
			found := false
			err := m.matchVersionPattern(x.V, x.App, s, tr, func() error {
				found = true
				return errStopEnum
			})
			if err != nil && err != errStopEnum {
				return false, err
			}
			return found, nil
		}
		f, err := resolveFact(x.V, x.App, s)
		if err != nil {
			return false, err
		}
		return m.base.Has(f), nil
	case term.UpdateAtom:
		return m.groundUpdateTruth(x, s)
	case term.BuiltinAtom:
		// Fully bound in safe rules: SolveTrail cannot bind, but guard with
		// a mark anyway so unsafe inputs cannot corrupt the substitution.
		mark := tr.Mark()
		ok, err := builtin.SolveTrail(x, s, tr)
		tr.Undo(s, mark)
		return ok, err
	default:
		return false, fmt.Errorf("eval: unknown atom type %T", a)
	}
}

// groundUpdateTruth decides a fully bound update-term in body position.
func (m *matcher) groundUpdateTruth(x term.UpdateAtom, s unify.Subst) (bool, error) {
	v, ok := s.ResolveVID(x.V)
	if !ok {
		return false, fmt.Errorf("eval: unbound version base in %s", x)
	}
	key, ok := resolveKey(x.App, s)
	if !ok {
		return false, fmt.Errorf("eval: unbound argument in %s", x)
	}
	r, ok := s.ResolveOID(x.App.Result)
	if !ok {
		return false, fmt.Errorf("eval: unbound result in %s", x)
	}
	w := v.Push(x.Kind)
	switch x.Kind {
	case term.Ins:
		return m.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}), nil
	case term.Del:
		vstar, ok := m.base.VStar(v)
		if !ok {
			return false, nil
		}
		return m.base.Has(term.Fact{V: vstar, Method: key.Method, Args: key.Args, Result: r}) &&
			m.base.Exists(w) &&
			!m.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}), nil
	case term.Mod:
		rp, ok := s.ResolveOID(x.NewResult)
		if !ok {
			return false, fmt.Errorf("eval: unbound new result in %s", x)
		}
		vstar, ok := m.base.VStar(v)
		if !ok {
			return false, nil
		}
		if !m.base.Has(term.Fact{V: vstar, Method: key.Method, Args: key.Args, Result: r}) {
			return false, nil
		}
		if !m.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: rp}) {
			return false, nil
		}
		if r != rp && m.base.Has(term.Fact{V: w, Method: key.Method, Args: key.Args, Result: r}) {
			return false, nil
		}
		return true, nil
	default:
		return false, fmt.Errorf("eval: invalid update kind %v", x.Kind)
	}
}

// resolveFact resolves a fully bound version atom to a fact.
func resolveFact(v term.VersionID, app term.MethodApp, s unify.Subst) (term.Fact, error) {
	g, ok := s.ResolveVID(v)
	if !ok {
		return term.Fact{}, fmt.Errorf("eval: unbound version base in %s.%s", v, app)
	}
	key, ok := resolveKey(app, s)
	if !ok {
		return term.Fact{}, fmt.Errorf("eval: unbound argument in %s.%s", v, app)
	}
	r, ok := s.ResolveOID(app.Result)
	if !ok {
		return term.Fact{}, fmt.Errorf("eval: unbound result in %s.%s", v, app)
	}
	return term.Fact{V: g, Method: key.Method, Args: key.Args, Result: r}, nil
}
