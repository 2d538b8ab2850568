package objectbase

import (
	"slices"
	"strings"

	"verlog/internal/term"
)

// Diff is the difference between two object bases, as sorted fact lists.
// Applying a diff to its "from" base yields its "to" base.
type Diff struct {
	Added   []term.Fact
	Removed []term.Fact
}

// Compute returns the diff that transforms from into to. It walks both
// bases in full (all layers merged) and is the reference every cheaper way
// of obtaining a diff is tested against; the commit path uses ChangedFacts.
// States the two bases share by pointer are skipped without comparing.
func Compute(from, to *Base) Diff {
	var changes []Change
	to.forEachState(func(v term.GVID, s *State) {
		if old := from.stateOf(v); old != s {
			changes = append(changes, Change{V: v, Old: old, New: s})
		}
	})
	from.forEachState(func(v term.GVID, s *State) {
		if to.stateOf(v) == nil {
			changes = append(changes, Change{V: v, Old: s})
		}
	})
	return DiffChanges(changes)
}

// DiffChanges returns the diff a set of changed versions amounts to, as
// fact lists: ChangedFacts collected. It sorts changes like ChangedFacts.
func DiffChanges(changes []Change) Diff {
	var d Diff
	ChangedFacts(changes,
		func(f term.Fact) { d.Added = append(d.Added, f) },
		func(f term.Fact) { d.Removed = append(d.Removed, f) })
	return d
}

// ChangedFacts walks the diff a set of changed versions amounts to: it
// calls added for the facts of each New state missing from its Old state
// and removed for the reverse, each in the order Compute lists them (by
// version, method, arguments, result). When the changes are those a base
// was derived with, the two sequences equal Compute(base, derived) at the
// cost of the changed states alone — which is how a commit writes its
// journal record without building a Diff. changes is sorted by version in
// place.
func ChangedFacts(changes []Change, added, removed func(term.Fact)) {
	byVersion := func(a, b Change) int { return a.V.Compare(b.V) }
	if !slices.IsSortedFunc(changes, byVersion) {
		slices.SortFunc(changes, byVersion)
	}
	var apps []appEntry
	// only emits the applications of s that other lacks, sorted.
	only := func(v term.GVID, s, other *State, emit func(term.Fact)) {
		if s == nil {
			return
		}
		apps = apps[:0]
		s.ForEach(func(k term.MethodKey, r term.OID) {
			if other == nil || !other.Has(k, r) {
				apps = append(apps, appEntry{key: k, r: r})
			}
		})
		if len(apps) > 1 {
			slices.SortFunc(apps, func(a, b appEntry) int {
				if c := strings.Compare(a.key.Method, b.key.Method); c != 0 {
					return c
				}
				if c := a.key.Args.Compare(b.key.Args); c != 0 {
					return c
				}
				return a.r.Compare(b.r)
			})
		}
		for _, a := range apps {
			emit(term.Fact{V: v, Method: a.key.Method, Args: a.key.Args, Result: a.r})
		}
	}
	for _, c := range changes {
		only(c.V, c.New, c.Old, added)
		only(c.V, c.Old, c.New, removed)
	}
}

// Empty reports whether the diff changes nothing.
func (d Diff) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// Apply applies the diff to b in place (removals first, then additions).
func (d Diff) Apply(b *Base) {
	for _, f := range d.Removed {
		b.Remove(f)
	}
	for _, f := range d.Added {
		b.Insert(f)
	}
}

// Changes returns the diff as the changes it makes to the base b, one per
// version it touches, so that b.Derive(d.Changes(b)) is b with the diff
// applied — without copying the rest of b, which Apply on a Clone would.
func (d Diff) Changes(b *Base) []Change {
	byV := make(map[term.GVID]*State)
	edit := func(v term.GVID) *State {
		s, ok := byV[v]
		if !ok {
			if old := b.stateOf(v); old != nil {
				s = old.Clone()
			} else {
				s = NewState()
			}
			byV[v] = s
		}
		return s
	}
	for _, f := range d.Removed {
		edit(f.V).Remove(f.Key(), f.Result)
	}
	for _, f := range d.Added {
		edit(f.V).Add(f.Key(), f.Result)
	}
	changes := make([]Change, 0, len(byV))
	for v, s := range byV {
		changes = append(changes, Change{V: v, Old: b.stateOf(v), New: s})
	}
	return changes
}

// Invert returns the reverse diff.
func (d Diff) Invert() Diff { return Diff{Added: d.Removed, Removed: d.Added} }
