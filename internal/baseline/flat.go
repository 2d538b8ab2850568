// Package baseline implements the comparison systems the paper discusses
// qualitatively in Sections 1 and 2.4, so the benchmark suite can measure
// verlog against them:
//
//   - Inflationary: a flat (version-free) rule engine in the style of
//     Logres modules with inflationary semantics and of the Datalog update
//     extensions of Abiteboul/Vianu. Rule heads insert or delete plain
//     facts; all rules fire simultaneously against the evolving base.
//     Without versions, a rule like "raise every salary by 10%" re-applies
//     to its own output and diverges — the control problem object
//     versioning solves.
//
//   - Sequential: the same flat engine with manually ordered rule groups
//     (Logres "modules", RDL1 control networks). Each group runs either to
//     its own fixpoint or for a single pass. With the right manual
//     grouping it reproduces verlog's results; with the wrong one it
//     silently computes something else — the anomaly of Section 2.4.
//
//   - Direct: a hand-coded imperative updater for the enterprise workload,
//     the performance floor for the overhead-factor experiment.
//
// The flat engines reuse verlog's concrete syntax: ins[o]/del[o]/mod[o]
// heads are read as insert/delete/modify of plain facts, and version
// identities are rejected — the language here has no versions at all.
package baseline

import (
	"fmt"

	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// FlatResult is the outcome of a flat-engine run.
type FlatResult struct {
	// Final is the resulting fact base.
	Final *objectbase.Base
	// Iterations counts rule-application rounds across all groups.
	Iterations int
	// Converged is false when the engine hit its iteration bound without
	// reaching a fixpoint (e.g. the diverging raise rule).
	Converged bool
}

// ErrVersionedConstruct reports a rule using version identities or body
// update-terms, which the flat baselines do not have.
type ErrVersionedConstruct struct {
	Rule string
	What string
}

func (e *ErrVersionedConstruct) Error() string {
	return fmt.Sprintf("baseline: rule %s uses %s: the flat baseline has no versions", e.Rule, e.What)
}

// checkFlat verifies that the program stays within the flat fragment.
func checkFlat(p *term.Program) error {
	for i, r := range p.Rules {
		if r.Head.V.Path.Len() > 0 {
			return &ErrVersionedConstruct{Rule: r.Label(i), What: "a version identity in its head"}
		}
		for _, l := range r.Body {
			switch a := l.Atom.(type) {
			case term.VersionAtom:
				if a.V.Path.Len() > 0 {
					return &ErrVersionedConstruct{Rule: r.Label(i), What: "a version identity in its body"}
				}
			case term.UpdateAtom:
				return &ErrVersionedConstruct{Rule: r.Label(i), What: "an update-term in its body"}
			}
		}
	}
	return nil
}

// Inflationary runs every rule simultaneously against the evolving base
// until a fixpoint or the iteration bound.
type Inflationary struct {
	// MaxIterations bounds the rounds (default 1000). The flat raise rule
	// never converges; the bound turns divergence into a reportable result.
	MaxIterations int
}

// Run applies p to ob (not modified) under inflationary semantics.
func (in Inflationary) Run(ob *objectbase.Base, p *term.Program) (*FlatResult, error) {
	if err := checkFlat(p); err != nil {
		return nil, err
	}
	limit := in.MaxIterations
	if limit <= 0 {
		limit = 1000
	}
	base := ob.Clone()
	all := make([]int, len(p.Rules))
	for i := range all {
		all[i] = i
	}
	iters, converged, err := runGroup(base, p, all, limit, false)
	if err != nil {
		return nil, err
	}
	return &FlatResult{Final: base, Iterations: iters, Converged: converged}, nil
}

// Sequential runs manually ordered rule groups, each to a fixpoint or for
// one pass — the "update = logic + manual control" style of Logres and
// RDL1 that Section 2.4 contrasts with version-derived control.
type Sequential struct {
	// Groups lists rule indexes in execution order.
	Groups [][]int
	// OnePass applies each group exactly once instead of to a fixpoint
	// (the production-system recognize-act cycle). This is what makes the
	// raise rule expressible without versions.
	OnePass bool
	// MaxIterations bounds each group's rounds (default 1000).
	MaxIterations int
}

// Run applies p to ob (not modified) group by group.
func (sq Sequential) Run(ob *objectbase.Base, p *term.Program) (*FlatResult, error) {
	if err := checkFlat(p); err != nil {
		return nil, err
	}
	limit := sq.MaxIterations
	if limit <= 0 {
		limit = 1000
	}
	base := ob.Clone()
	res := &FlatResult{Final: base, Converged: true}
	for _, g := range sq.Groups {
		for _, ri := range g {
			if ri < 0 || ri >= len(p.Rules) {
				return nil, fmt.Errorf("baseline: group refers to rule %d of %d", ri, len(p.Rules))
			}
		}
		iters, converged, err := runGroup(base, p, g, limit, sq.OnePass)
		if err != nil {
			return nil, err
		}
		res.Iterations += iters
		if !converged {
			res.Converged = false
		}
	}
	return res, nil
}

// flatUpdate is one fired flat update.
type flatUpdate struct {
	del  bool
	fact term.Fact
}

// runGroup iterates the given rules on base until fixpoint (or one pass),
// applying deletions before additions each round.
func runGroup(base *objectbase.Base, p *term.Program, rules []int, limit int, onePass bool) (int, bool, error) {
	for iter := 1; ; iter++ {
		if iter > limit {
			return iter - 1, false, nil
		}
		var fired []flatUpdate
		seen := map[flatUpdate]bool{}
		emit := func(u flatUpdate) {
			if !seen[u] {
				seen[u] = true
				fired = append(fired, u)
			}
		}
		for _, ri := range rules {
			if err := fireFlatRule(base, p.Rules[ri], ri, emit); err != nil {
				return iter, false, err
			}
		}
		changed := false
		for _, u := range fired {
			if u.del {
				if base.Remove(u.fact) {
					changed = true
				}
			}
		}
		for _, u := range fired {
			if !u.del {
				if base.Insert(u.fact) {
					changed = true
				}
			}
		}
		if !changed {
			return iter, true, nil
		}
		if onePass {
			return iter, true, nil
		}
	}
}

// fireFlatRule enumerates body matches (via eval.Query, which the flat
// fragment shares) and emits the head's flat updates.
func fireFlatRule(base *objectbase.Base, r term.Rule, ri int, emit func(flatUpdate)) error {
	lits, err := eval.Query(base, r.Body)
	if err != nil {
		return fmt.Errorf("baseline: rule %s: %w", r.Label(ri), err)
	}
	for _, b := range lits {
		if err := groundFlatHead(base, r, b, emit); err != nil {
			return fmt.Errorf("baseline: rule %s: %w", r.Label(ri), err)
		}
	}
	return nil
}

func groundFlatHead(base *objectbase.Base, r term.Rule, b eval.Binding, emit func(flatUpdate)) error {
	resolve := func(t term.ObjTerm) (term.OID, error) {
		switch x := t.(type) {
		case term.OID:
			return x, nil
		case term.Var:
			o, ok := b[x]
			if !ok {
				return term.OID{}, fmt.Errorf("unbound head variable %s", x)
			}
			return o, nil
		default:
			return term.OID{}, fmt.Errorf("bad head term %v", t)
		}
	}
	obj, err := resolve(r.Head.V.Base)
	if err != nil {
		return err
	}
	v := term.GVID{Object: obj}
	if r.Head.All {
		for f := range base.FactsOf(v) {
			if !f.IsExists() {
				emit(flatUpdate{del: true, fact: f})
			}
		}
		return nil
	}
	args := make([]term.OID, len(r.Head.App.Args))
	for i, a := range r.Head.App.Args {
		if args[i], err = resolve(a); err != nil {
			return err
		}
	}
	key := term.MethodKey{Method: r.Head.App.Method, Args: term.EncodeOIDs(args)}
	res, err := resolve(r.Head.App.Result)
	if err != nil {
		return err
	}
	old := term.Fact{V: v, Method: key.Method, Args: key.Args, Result: res}
	switch r.Head.Kind {
	case term.Ins:
		emit(flatUpdate{fact: old})
	case term.Del:
		if base.Has(old) {
			emit(flatUpdate{del: true, fact: old})
		}
	case term.Mod:
		nw, err := resolve(r.Head.NewResult)
		if err != nil {
			return err
		}
		if base.Has(old) {
			emit(flatUpdate{del: true, fact: old})
			emit(flatUpdate{fact: term.Fact{V: v, Method: key.Method, Args: key.Args, Result: nw}})
		}
	}
	return nil
}
