// Package strata computes the stratification of an update-program required
// by Section 4 of the paper. Rules are partitioned into strata so that
// bottom-up evaluation stratum by stratum reaches the fixpoint.
//
// With every construct [V] replaced by (V), the four conditions are, for
// rules r (the observer) and r' (the producer):
//
//	(a) r has head (V): every r' whose head version-id-term unifies with a
//	    subterm of V is strictly lower. (Once a state is copied it must not
//	    change any further.)
//	(b) r has a positive body atom with version-id-term V: every r' whose
//	    head unifies with a subterm of V is at most as high.
//	(c) as (b) for negated body atoms, but strictly lower.
//	(d) r has a body atom with version-id-term del(V) (resp. mod(V)):
//	    every r' whose head is del(V') (resp. mod(V')) with V and V'
//	    unifiable is strictly lower. (Delete/modify shrink states; their
//	    observers must run after them.)
//
// Unification is sorted (package unify): variables denote OIDs only.
//
// Interpretation note for (d): the producer side reads "whose head contains
// a version-id-term del(V')". We take both sides at the outermost functor
// of the respective version-id-term. This is the reading under which the
// paper's own examples receive exactly the stratifications the paper
// states; the inner-subterm hazards are covered by condition (a) on the
// producers of the enclosing versions.
package strata

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"verlog/internal/term"
)

// Cond identifies which stratification condition induced an edge.
type Cond byte

// The four conditions of Section 4.
const (
	CondA Cond = 'a'
	CondB Cond = 'b'
	CondC Cond = 'c'
	CondD Cond = 'd'
)

// Edge is one precedence constraint: stratum(From) <= stratum(To), strictly
// when Strict.
type Edge struct {
	From   int // producer rule index
	To     int // observer rule index
	Strict bool
	Cond   Cond
}

// Assignment is a computed stratification.
type Assignment struct {
	// Level holds the 0-based stratum of each rule.
	Level []int
	// Strata lists rule indexes per stratum, in rule order.
	Strata [][]int
	// Edges holds the full constraint set, for diagnostics.
	Edges []Edge
}

// NumStrata returns the number of strata.
func (a *Assignment) NumStrata() int { return len(a.Strata) }

// String renders the strata as "{rule1, rule2}; {rule3}" using labels.
func (a *Assignment) Format(labels []string) string {
	var b strings.Builder
	for i, s := range a.Strata {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteByte('{')
		for j, r := range s {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(labels[r])
		}
		b.WriteByte('}')
	}
	return b.String()
}

// NotStratifiableError reports a cycle through a strict constraint.
type NotStratifiableError struct {
	// Cycle holds rule indexes forming a strongly connected component that
	// contains a strict edge.
	Cycle []int
	// Strict is one strict edge inside the component.
	Strict Edge
	Labels []string
	// Pos locates the observer rule of the strict edge (zero for
	// programmatic rules or when Solve is called without rule positions).
	Pos term.Pos
}

func (e *NotStratifiableError) Error() string {
	names := make([]string, len(e.Cycle))
	for i, r := range e.Cycle {
		names[i] = e.Labels[r]
	}
	return fmt.Sprintf(
		"strata: program is not stratifiable: rules {%s} are mutually recursive but condition (%c) requires %s strictly below %s",
		strings.Join(names, ", "), e.Strict.Cond, e.Labels[e.Strict.From], e.Labels[e.Strict.To])
}

// bodyVID is a version-id-term occurring in a rule body with its polarity.
type bodyVID struct {
	v   term.VersionID
	neg bool
}

// headVID returns the head's version-id-term with [V] replaced by (V).
func headVID(r term.Rule) term.VersionID { return r.Head.Target() }

// bodyVIDs returns the version-id-terms of all body atoms (update-terms
// with [V] replaced by (V)); built-ins contribute none.
func bodyVIDs(r term.Rule) []bodyVID {
	var out []bodyVID
	for _, l := range r.Body {
		switch a := l.Atom.(type) {
		case term.VersionAtom:
			out = append(out, bodyVID{v: a.V, neg: l.Neg})
		case term.UpdateAtom:
			out = append(out, bodyVID{v: a.Target(), neg: l.Neg})
		}
	}
	return out
}

// HeadIndex answers "which rule heads unify with this version-id-term"
// in time proportional to the number of matches instead of the number of
// rules. Under sorted unification two version-id-terms unify exactly when
// their paths are identical and their bases unify (an OID base matches the
// same OID or a variable; a variable base matches everything), so heads
// bucket by path, and each bucket splits into variable-based heads and an
// OID-keyed map. This is what makes edge construction O(rules·deps)
// rather than O(rules²·depth).
type HeadIndex struct {
	buckets map[term.Path]*headBucket
}

type headBucket struct {
	all      []int // every head with this path, ascending
	varHeads []int // heads whose base is a variable, ascending
	oidHeads map[term.OID][]int
}

// NewHeadIndex indexes the given head version-id-terms (heads[i] is the
// target of rule i).
func NewHeadIndex(heads []term.VersionID) *HeadIndex {
	ix := &HeadIndex{buckets: map[term.Path]*headBucket{}}
	for i, h := range heads {
		b := ix.buckets[h.Path]
		if b == nil {
			b = &headBucket{oidHeads: map[term.OID][]int{}}
			ix.buckets[h.Path] = b
		}
		b.all = append(b.all, i)
		if oid, ok := h.Base.(term.OID); ok {
			b.oidHeads[oid] = append(b.oidHeads[oid], i)
		} else {
			b.varHeads = append(b.varHeads, i)
		}
	}
	return ix
}

// Matches calls yield for every indexed head that unifies with v, in
// ascending head order. Like unify.VersionIDs it compares paths and bases
// only, so a wildcard (path-less) term matches only path-less heads.
func (ix *HeadIndex) Matches(v term.VersionID, yield func(head int)) {
	b := ix.buckets[v.Path]
	if b == nil {
		return
	}
	oid, ok := v.Base.(term.OID)
	if !ok { // variable base: unifies with every head of this path
		for _, h := range b.all {
			yield(h)
		}
		return
	}
	oids := b.oidHeads[oid]
	vars := b.varHeads
	i, j := 0, 0
	for i < len(vars) || j < len(oids) {
		if j >= len(oids) || (i < len(vars) && vars[i] < oids[j]) {
			yield(vars[i])
			i++
		} else {
			yield(oids[j])
			j++
		}
	}
}

// Any reports whether any indexed head unifies with v.
func (ix *HeadIndex) Any(v term.VersionID) bool {
	found := false
	ix.Matches(v, func(int) { found = true })
	return found
}

// Stratify computes a stratification of p fulfilling conditions (a)-(d),
// or reports that none exists.
func Stratify(p *term.Program) (*Assignment, error) {
	a, err := Solve(len(p.Rules), BuildEdges(p), p.RuleLabels())
	if err != nil {
		var nse *NotStratifiableError
		if errors.As(err, &nse) {
			nse.Pos = p.Rules[nse.Strict.To].Pos
		}
		return nil, err
	}
	return a, nil
}

// StratifyLifted is Stratify of p's lift: every OID base of a
// version-id-term read as a variable, which unifies with more than the
// constant did. Its edges include those of every program p's OID constants
// can be replaced with, so a stratification of the lift is valid for each
// of them (Section 4, conditions (a)-(d)).
func StratifyLifted(p *term.Program) (*Assignment, error) {
	return Solve(len(p.Rules), buildEdges(p, true), p.RuleLabels())
}

// condBit maps a condition to a dedup-mask bit.
func condBit(c Cond) uint8 {
	switch c {
	case CondA:
		return 1
	case CondB:
		return 2
	case CondC:
		return 4
	default: // CondD
		return 8
	}
}

// BuildEdges constructs the full constraint-edge set of conditions (a)-(d)
// for p, deduplicated. Producer lookups go through a path-keyed HeadIndex,
// so the cost is proportional to rules·dependencies, not rules². The edge
// order is identical to a per-observer scan over all rules in index order:
// for each observer, condition (a) over the head subterms, then per body
// version-id-term conditions (b)/(c) and (d), producers ascending.
func BuildEdges(p *term.Program) []Edge { return buildEdges(p, false) }

// liftedBase stands for every OID base of a lifted program.
var liftedBase term.ObjTerm = term.Var("_")

// buildEdges is BuildEdges, of p's lift when lift is set: an OID base of a
// version-id-term then unifies like a variable.
func buildEdges(p *term.Program, lift bool) []Edge {
	n := len(p.Rules)
	vid := func(v term.VersionID) term.VersionID {
		if lift && term.IsGround(v.Base) {
			v.Base = liftedBase
		}
		return v
	}
	heads := make([]term.VersionID, n)
	for i, r := range p.Rules {
		heads[i] = vid(headVID(r))
	}
	ix := NewHeadIndex(heads)

	// Condition (d) matches at the outermost functor with the inner terms
	// unifiable — which, paths being compared verbatim, is the same as the
	// full version-id-terms being unifiable. One index per outer functor
	// restricted to heads with that functor keeps the producer scan indexed.
	innerIx := map[term.UpdateKind]*HeadIndex{}
	for _, kind := range []term.UpdateKind{term.Del, term.Mod} {
		sub := make([]term.VersionID, n)
		for i, h := range heads {
			if h.Path.Outer() == kind {
				sub[i] = h
			} else {
				sub[i] = term.VersionID{Path: term.Path("\x00impossible")}
			}
		}
		innerIx[kind] = NewHeadIndex(sub)
	}

	var edges []Edge
	// Per-observer dedup: a bitmask of conditions already recorded for each
	// producer, reset lazily by epoch. Strictness is a function of the
	// condition, so (from, cond) identifies an edge.
	mark := make([]uint8, n)
	epoch := make([]uint32, n)
	var cur uint32
	add := func(from, to int, strict bool, cond Cond) {
		bit := condBit(cond)
		if epoch[from] != cur {
			epoch[from] = cur
			mark[from] = 0
		}
		if mark[from]&bit != 0 {
			return
		}
		mark[from] |= bit
		edges = append(edges, Edge{From: from, To: to, Strict: strict, Cond: cond})
	}

	for to, r := range p.Rules {
		cur++
		// (a): producers of any subterm of the head's V strictly below.
		for _, sub := range vid(r.Head.V).Subterms() {
			ix.Matches(sub, func(from int) { add(from, to, true, CondA) })
		}
		for _, bv := range bodyVIDs(r) {
			bv.v = vid(bv.v)
			// (b)/(c): producers of any subterm of a body VID.
			for _, sub := range bv.v.Subterms() {
				ix.Matches(sub, func(from int) { add(from, to, bv.neg, condBC(bv.neg)) })
			}
			// (d): del/mod producers of the version the body VID results
			// from, matched at the outermost functor.
			outer := bv.v.Path.Outer()
			if outer != term.Del && outer != term.Mod {
				continue
			}
			innerIx[outer].Matches(bv.v, func(from int) { add(from, to, true, CondD) })
		}
	}
	return edges
}

// Compute builds the constraint edges once and returns either a
// stratification or the full violation list (never both): every strongly
// connected component of p's constraint graph that contains a strict edge,
// i.e. all independent reasons the program is not stratifiable, instead of
// the first one Stratify reports.
func Compute(p *term.Program) (*Assignment, []*NotStratifiableError) {
	n := len(p.Rules)
	edges := BuildEdges(p)
	a, err := Solve(n, edges, p.RuleLabels())
	if err == nil {
		return a, nil
	}
	comp, _ := sccOf(n, edges)
	bad := violations(n, edges, comp, p.RuleLabels())
	for _, v := range bad {
		v.Pos = p.Rules[v.Strict.To].Pos
	}
	return nil, bad
}

// Components returns the strongly connected component of each rule in the
// constraint graph, numbered in reverse topological order, plus the
// component count. Rules in the same component are mutually recursive.
func Components(n int, edges []Edge) ([]int, int) {
	return sccOf(n, edges)
}

func condBC(neg bool) Cond {
	if neg {
		return CondC
	}
	return CondB
}

// sccOf runs Tarjan's algorithm over the edge set and returns the
// component of each rule plus the component count. Components are numbered
// in reverse topological order of the condensation.
func sccOf(n int, edges []Edge) (comp []int, ncomp int) {
	adj := make([][]int, n)
	for i, e := range edges {
		adj[e.From] = append(adj[e.From], i)
	}
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var counter int
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, ei := range adj[v] {
			w := edges[ei].To
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	return comp, ncomp
}

// violations lists one NotStratifiableError per strongly connected
// component that contains a strict edge, in component order. The witness
// edge is the first strict edge of the component in edge order (the same
// edge Solve has always reported for the first component).
func violations(n int, edges []Edge, comp []int, labels []string) []*NotStratifiableError {
	witness := map[int]Edge{}
	var order []int
	for _, e := range edges {
		if e.Strict && comp[e.From] == comp[e.To] {
			if _, seen := witness[comp[e.From]]; !seen {
				witness[comp[e.From]] = e
				order = append(order, comp[e.From])
			}
		}
	}
	var out []*NotStratifiableError
	for _, c := range order {
		var cycle []int
		for v := 0; v < n; v++ {
			if comp[v] == c {
				cycle = append(cycle, v)
			}
		}
		out = append(out, &NotStratifiableError{Cycle: cycle, Strict: witness[c], Labels: labels})
	}
	return out
}

// Solve finds minimal stratum levels satisfying a constraint-edge set over
// n rules, or reports a strict edge inside a strongly connected component.
// It is exported so that other stratified fragments (e.g. package derived)
// can reuse the solver with their own edge construction.
func Solve(n int, edges []Edge, labels []string) (*Assignment, error) {
	comp, ncomp := sccOf(n, edges)

	// Reject strict edges within a component.
	if bad := violations(n, edges, comp, labels); len(bad) > 0 {
		return nil, bad[0]
	}

	// Longest-path levels on the condensation. Tarjan numbers components in
	// reverse topological order: every edge goes from a higher component id
	// to a lower or equal one, so iterating component ids downward is a
	// topological order of the condensation.
	compLevel := make([]int, ncomp)
	type cedge struct {
		to     int
		strict bool
	}
	cadj := make([][]cedge, ncomp)
	for _, e := range edges {
		if comp[e.From] != comp[e.To] {
			cadj[comp[e.From]] = append(cadj[comp[e.From]], cedge{to: comp[e.To], strict: e.Strict})
		}
	}
	for c := ncomp - 1; c >= 0; c-- {
		for _, e := range cadj[c] {
			need := compLevel[c]
			if e.strict {
				need++
			}
			if compLevel[e.to] < need {
				compLevel[e.to] = need
			}
		}
	}

	a := &Assignment{Level: make([]int, n), Edges: edges}
	maxLevel := 0
	for v := 0; v < n; v++ {
		a.Level[v] = compLevel[comp[v]]
		if a.Level[v] > maxLevel {
			maxLevel = a.Level[v]
		}
	}
	// Compact level numbers (they are already dense by construction of
	// longest paths, but guard against gaps).
	used := map[int]bool{}
	for _, l := range a.Level {
		used[l] = true
	}
	var levels []int
	for l := range used {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	remap := map[int]int{}
	for i, l := range levels {
		remap[l] = i
	}
	for v := range a.Level {
		a.Level[v] = remap[a.Level[v]]
	}
	a.Strata = make([][]int, len(levels))
	for v := 0; v < n; v++ {
		a.Strata[a.Level[v]] = append(a.Strata[a.Level[v]], v)
	}
	return a, nil
}
