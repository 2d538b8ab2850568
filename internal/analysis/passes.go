package analysis

import (
	"fmt"
	"sort"
	"strings"

	"verlog/internal/objectbase"
	"verlog/internal/safety"
	"verlog/internal/strata"
	"verlog/internal/term"
	"verlog/internal/unify"
)

// passes is the pass pipeline, in order. structuralPass must precede
// singleVarPass (it records which variables are already unbound).
var passes = []func(*ctx){
	structuralPass,
	strataPass,
	neverFiresPass,
	duplicatePass,
	singleVarPass,
	emptiedVersionPass,
	linearityPass,
	depthPass,
	methodPass,
}

// structuralPass re-surfaces the safety checks (Section 2.3 structural
// invariants plus limitedness) as diagnostics: V0003-V0006 for structure,
// V0001 per unbound variable.
func structuralPass(c *ctx) {
	c.unbound = map[int]map[term.Var]bool{}
	for ri, r := range c.p.Rules {
		for _, v := range safety.RuleViolations(r) {
			d := Diagnostic{
				Severity: Error,
				Pos:      c.rulePos(ri, v.Pos),
				Rule:     c.labels[ri],
				Message:  v.Msg,
			}
			switch v.Kind {
			case safety.UnlimitedVar:
				d.Code = CodeUnboundVar
				d.Witness = string(v.Var)
				if c.unbound[ri] == nil {
					c.unbound[ri] = map[term.Var]bool{}
				}
				c.unbound[ri][v.Var] = true
			case safety.ExistsHead:
				d.Code = CodeExistsHead
			case safety.BadWildcard:
				d.Code = CodeWildcard
				c.wildcard = true
			case safety.BadDeleteAll:
				d.Code = CodeDeleteAll
			case safety.BadModPair:
				d.Code = CodeModPair
			}
			c.add(d)
		}
	}
}

// strataPass reports every strongly connected rule component that violates
// the stratification conditions (a)-(d) of Section 4 as one V0002, with
// the cycle as witness.
func strataPass(c *ctx) {
	if c.wildcard {
		return
	}
	_, bad := c.stratification()
	for _, v := range bad {
		names := make([]string, len(v.Cycle))
		for i, r := range v.Cycle {
			names[i] = c.labels[r]
		}
		cycle := strings.Join(names, " -> ")
		if len(names) > 1 {
			cycle += " -> " + names[0]
		}
		c.add(Diagnostic{
			Code:     CodeNotStratifiable,
			Severity: Error,
			Pos:      v.Pos,
			Rule:     c.labels[v.Strict.To],
			Message: fmt.Sprintf(
				"not stratifiable: rules {%s} are mutually recursive but condition (%c) requires %s strictly below %s",
				strings.Join(names, ", "), v.Strict.Cond, c.labels[v.Strict.From], c.labels[v.Strict.To]),
			Witness: cycle,
		})
	}
}

// neverFiresPass flags positive body atoms that test a derived version no
// rule head produces (and, when a base is supplied, that the base does not
// already contain): by the body-position truth definition, such an atom is
// false in every fixpoint, so the rule can never fire.
func neverFiresPass(c *ctx) {
	var heads []term.VersionID
	for _, r := range c.p.Rules {
		if t, ok := headTarget(r); ok {
			heads = append(heads, t)
		}
	}
	ix := strata.NewHeadIndex(heads)
	for ri, r := range c.p.Rules {
		for _, l := range r.Body {
			if l.Neg {
				continue
			}
			var vid term.VersionID
			switch a := l.Atom.(type) {
			case term.VersionAtom:
				vid = a.V
			case term.UpdateAtom:
				if a.V.Any {
					continue
				}
				vid = a.Target()
			default:
				continue
			}
			if vid.Any || vid.Path.Len() == 0 {
				continue
			}
			if ix.Any(vid) || c.baseHas(vid) {
				continue
			}
			c.add(Diagnostic{
				Code:     CodeNeverFires,
				Severity: Warning,
				Pos:      c.rulePos(ri, l.Pos),
				Rule:     c.labels[ri],
				Message: fmt.Sprintf(
					"rule can never fire: no rule head derives a version matching %s and the object base has none", vid),
				Witness: vid.String(),
			})
		}
	}
}

// headTarget returns the head's target version, or false for a wildcard
// head (a V0004 error), which has no well-defined target.
func headTarget(r term.Rule) (term.VersionID, bool) {
	if r.Head.V.Any {
		return term.VersionID{}, false
	}
	return r.Head.Target(), true
}

// baseHas reports whether the supplied object base already contains a
// version the (possibly open) version-id-term matches.
func (c *ctx) baseHas(vid term.VersionID) bool {
	if c.opts.Base == nil {
		return false
	}
	if oid, ok := vid.Base.(term.OID); ok {
		return c.opts.Base.HasVersion(term.GVID{Object: oid, Path: vid.Path})
	}
	for f := range c.opts.Base.AllFacts() {
		if f.V.Path == vid.Path {
			return true
		}
	}
	return false
}

// duplicatePass flags rules whose head and body are syntactically identical
// to an earlier rule: the second copy derives nothing new.
func duplicatePass(c *ctx) {
	first := map[string]int{}
	for ri, r := range c.p.Rules {
		key := r.String() // label-free concrete syntax
		if orig, ok := first[key]; ok {
			c.add(Diagnostic{
				Code:     CodeDuplicateRule,
				Severity: Warning,
				Pos:      r.Pos,
				Rule:     c.labels[ri],
				Message:  fmt.Sprintf("duplicate of rule %s: identical head and body", c.labels[orig]),
				Witness:  c.labels[orig],
			})
			continue
		}
		first[key] = ri
	}
}

// singleVarPass flags variables that occur exactly once in a rule: a bound
// variable nothing else constrains is usually a typo for another name.
// Variables prefixed with '_' opt out; variables already reported as
// unbound (V0001) are skipped.
func singleVarPass(c *ctx) {
	for ri, r := range c.p.Rules {
		counts := varCounts(r)
		var once []term.Var
		for v, n := range counts {
			if n == 1 && !strings.HasPrefix(string(v), "_") && !c.unbound[ri][v] {
				once = append(once, v)
			}
		}
		sort.Slice(once, func(i, j int) bool { return once[i] < once[j] })
		for _, v := range once {
			c.add(Diagnostic{
				Code:     CodeSingleVar,
				Severity: Warning,
				Pos:      c.rulePos(ri, r.PosOf(v)),
				Rule:     c.labels[ri],
				Message:  fmt.Sprintf("variable %s occurs only once: possibly a typo (prefix with _ to silence)", v),
				Witness:  string(v),
			})
		}
	}
}

// varCounts counts every occurrence of every variable in the rule.
func varCounts(r term.Rule) map[term.Var]int {
	counts := map[term.Var]int{}
	obj := func(t term.ObjTerm) {
		if v, ok := t.(term.Var); ok {
			counts[v]++
		}
	}
	app := func(m term.MethodApp) {
		for _, a := range m.Args {
			obj(a)
		}
		if m.Result != nil {
			obj(m.Result)
		}
	}
	atom := func(a term.Atom) {
		switch x := a.(type) {
		case term.VersionAtom:
			obj(x.V.Base)
			app(x.App)
		case term.UpdateAtom:
			obj(x.V.Base)
			if !x.All {
				app(x.App)
				if x.NewResult != nil {
					obj(x.NewResult)
				}
			}
		case term.BuiltinAtom:
			for _, v := range term.ExprVars(x.R, term.ExprVars(x.L, nil)) {
				counts[v]++
			}
		}
	}
	atom(r.Head)
	for _, l := range r.Body {
		atom(l.Atom)
	}
	return counts
}

// emptiedVersionPass flags del/mod heads whose source version is the
// target of some delete-all head: delete-all leaves only the exists
// method, so there is nothing left for the del/mod to remove or change.
// Insertions into emptied versions are fine (the paper's own enterprise
// program rebuilds state after a delete-all) and are not flagged.
func emptiedVersionPass(c *ctx) {
	for ri, r := range c.p.Rules {
		if r.Head.All || (r.Head.Kind != term.Del && r.Head.Kind != term.Mod) {
			continue
		}
		for rj, other := range c.p.Rules {
			if rj == ri || !other.Head.All {
				continue
			}
			t, ok := headTarget(other)
			if !ok || !unify.VersionIDs(t, r.Head.V) {
				continue
			}
			c.add(Diagnostic{
				Code:     CodeEmptiedVersion,
				Severity: Warning,
				Pos:      r.Pos,
				Rule:     c.labels[ri],
				Message: fmt.Sprintf(
					"%s on version %s, which delete-all rule %s empties: only insertions can follow a delete-all",
					r.Head.Kind, r.Head.V, c.labels[rj]),
				Witness: c.labels[rj],
			})
			break
		}
	}
}

// linearityPass flags rule pairs that derive incomparable versions of the
// same object — the version-linearity hazard of Section 5: both versions
// claim to be "the" successor state, and no further rule can see a single
// consistent history. A pair is suppressed when either body carries a
// negated update atom whose target unifies the other rule's head target
// (the standard guard pattern making the two alternatives exclusive).
//
// Only heads whose bases unify are compared: a head on a ground object
// against the heads on the same object and those on a variable, so that
// rules on distinct objects cost nothing per pair. Pairs are visited, and
// flagged, in the order of an all-pairs scan.
func linearityPass(c *ctx) {
	n := len(c.p.Rules)
	targets := make([]term.VersionID, n)
	has := make([]bool, n)
	byOID := map[term.OID][]int{}
	var open []int // heads on a variable, which unify with every base
	for i, r := range c.p.Rules {
		if targets[i], has[i] = headTarget(r); !has[i] {
			continue
		}
		if o, ok := targets[i].Base.(term.OID); ok {
			byOID[o] = append(byOID[o], i)
		} else {
			open = append(open, i)
		}
	}
	check := func(i, j int) {
		ti, tj := targets[i], targets[j]
		if ti.Path.HasPrefix(tj.Path) || tj.Path.HasPrefix(ti.Path) {
			return
		}
		if guardedAgainst(c.p.Rules[i], tj) || guardedAgainst(c.p.Rules[j], ti) {
			return
		}
		c.add(Diagnostic{
			Code:     CodeLinearityClash,
			Severity: Warning,
			Pos:      c.p.Rules[j].Pos,
			Rule:     c.labels[j],
			Message: fmt.Sprintf(
				"rules %s and %s derive incomparable versions %s and %s of the same object: version linearity is lost unless the rules are mutually exclusive",
				c.labels[i], c.labels[j], ti, tj),
			Witness: fmt.Sprintf("%s / %s", c.labels[i], c.labels[j]),
		})
	}
	for i := 0; i < n; i++ {
		if !has[i] {
			continue
		}
		o, ok := targets[i].Base.(term.OID)
		if !ok {
			for j := i + 1; j < n; j++ {
				if has[j] {
					check(i, j)
				}
			}
			continue
		}
		// The heads after i on o or on a variable, in order: two sorted
		// lists merged.
		same, vars := byOID[o], open
		for len(same) > 0 || len(vars) > 0 {
			var j int
			if len(vars) == 0 || len(same) > 0 && same[0] < vars[0] {
				j, same = same[0], same[1:]
			} else {
				j, vars = vars[0], vars[1:]
			}
			if j > i {
				check(i, j)
			}
		}
	}
}

// guardedAgainst reports whether r's body contains a negated update atom
// whose target unifies with other — i.e. r explicitly requires the other
// rule's update not to have happened.
func guardedAgainst(r term.Rule, other term.VersionID) bool {
	for _, l := range r.Body {
		if !l.Neg {
			continue
		}
		if a, ok := l.Atom.(term.UpdateAtom); ok && !a.V.Any && unify.VersionIDs(a.Target(), other) {
			return true
		}
	}
	return false
}

// depthPass flags head targets whose version-id-term nests more update
// applications than Options.MaxDepth: deep chains are legal but usually
// indicate a rule deriving from the wrong (already-updated) source
// version.
func depthPass(c *ctx) {
	for ri, r := range c.p.Rules {
		t, ok := headTarget(r)
		if !ok || t.Path.Len() <= c.opts.MaxDepth {
			continue
		}
		c.add(Diagnostic{
			Code:     CodeDeepVID,
			Severity: Warning,
			Pos:      r.Pos,
			Rule:     c.labels[ri],
			Message: fmt.Sprintf(
				"head derives version %s with %d nested updates (threshold %d): check the source version",
				t, t.Path.Len(), c.opts.MaxDepth),
			Witness: t.String(),
		})
	}
}

// methodPass audits the method vocabulary: V0201 (info) for methods the
// program derives but never reads, and — only when a base supplies the
// defined vocabulary — V0202 (warning) for methods a body reads that
// neither the base nor any head defines.
func methodPass(c *ctx) {
	type site struct {
		rule int
		pos  term.Pos
	}
	produced := map[string]site{}
	read := map[string]site{}
	for ri, r := range c.p.Rules {
		if !r.Head.All {
			if _, ok := produced[r.Head.App.Method]; !ok {
				produced[r.Head.App.Method] = site{rule: ri, pos: r.Pos}
			}
		}
		for _, l := range r.Body {
			var m string
			switch a := l.Atom.(type) {
			case term.VersionAtom:
				m = a.App.Method
			case term.UpdateAtom:
				if a.All {
					continue
				}
				m = a.App.Method
			default:
				continue
			}
			if _, ok := read[m]; !ok {
				read[m] = site{rule: ri, pos: c.rulePos(ri, l.Pos)}
			}
		}
	}

	var unread []string
	for m := range produced {
		if _, ok := read[m]; !ok {
			unread = append(unread, m)
		}
	}
	sort.Strings(unread)
	for _, m := range unread {
		s := produced[m]
		c.add(Diagnostic{
			Code:     CodeUnreadMethod,
			Severity: Info,
			Pos:      s.pos,
			Rule:     c.labels[s.rule],
			Message:  fmt.Sprintf("method %s is derived but no rule body reads it", m),
			Witness:  m,
		})
	}

	if c.opts.Base == nil {
		return
	}
	defined := map[string]bool{term.ExistsMethod: true}
	for _, ms := range objectbase.CollectStats(c.opts.Base).Methods {
		defined[ms.Method] = true
	}
	var unknown []string
	for m := range read {
		if _, ok := produced[m]; !ok && !defined[m] {
			unknown = append(unknown, m)
		}
	}
	sort.Strings(unknown)
	for _, m := range unknown {
		s := read[m]
		c.add(Diagnostic{
			Code:     CodeUnknownMethod,
			Severity: Warning,
			Pos:      s.pos,
			Rule:     c.labels[s.rule],
			Message:  fmt.Sprintf("method %s is read but defined neither by the object base nor by any rule head", m),
			Witness:  m,
		})
	}
}
