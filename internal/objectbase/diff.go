package objectbase

import (
	"sort"

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
// of obtaining a diff is tested against; the commit path uses DiffChanges.
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

// DiffChanges returns the diff a set of changed versions amounts to: the
// facts of each New state missing from its Old state, and vice versa,
// sorted as Compute sorts them. When the changes are those a base was
// derived with, the result equals Compute(base, derived) at the cost of the
// changed states alone.
func DiffChanges(changes []Change) Diff {
	var d Diff
	for _, c := range changes {
		if c.New != nil {
			c.New.ForEach(func(k term.MethodKey, r term.OID) {
				if c.Old == nil || !c.Old.Has(k, r) {
					d.Added = append(d.Added, term.Fact{V: c.V, Method: k.Method, Args: k.Args, Result: r})
				}
			})
		}
		if c.Old != nil {
			c.Old.ForEach(func(k term.MethodKey, r term.OID) {
				if c.New == nil || !c.New.Has(k, r) {
					d.Removed = append(d.Removed, term.Fact{V: c.V, Method: k.Method, Args: k.Args, Result: r})
				}
			})
		}
	}
	sortFacts(d.Added)
	sortFacts(d.Removed)
	return d
}

func sortFacts(fs []term.Fact) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Compare(fs[j]) < 0 })
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
