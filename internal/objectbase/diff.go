package objectbase

import (
	"slices"

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
// of obtaining a diff is tested against; the commit path walks its changes
// with ChangedFacts. States the two bases share by pointer are skipped
// without comparing.
func Compute(from, to *Base) Diff {
	var changes []Change
	for v, s := range to.eachState {
		if old := from.stateOf(v); old != s {
			changes = append(changes, Change{V: v, Old: old, New: s})
		}
	}
	for v, s := range from.eachState {
		if to.stateOf(v) == nil {
			changes = append(changes, Change{V: v, Old: s})
		}
	}
	return DiffChanges(changes)
}

// DiffChanges returns the diff a set of changed versions amounts to, as
// sorted fact lists (by version, method, arguments, result): ChangedFacts
// collected and sorted.
func DiffChanges(changes []Change) Diff {
	var d Diff
	ChangedFacts(changes,
		func(f term.Fact) { d.Added = append(d.Added, f) },
		func(f term.Fact) { d.Removed = append(d.Removed, f) })
	slices.SortFunc(d.Added, term.Fact.Compare)
	slices.SortFunc(d.Removed, term.Fact.Compare)
	return d
}

// ChangedFacts walks the diff a set of changed versions amounts to: it
// calls added for each fact of a New state its Old state lacks and removed
// for each fact of an Old state its New state lacks, in no particular
// order. When the changes are those a base was derived with, the facts are
// those of Compute(base, derived), found at the cost of the changed states
// alone — which is how a commit sums its digest (storage.ChangesDigest). A
// nil added or removed skips its side; changes is left as it is.
func ChangedFacts(changes []Change, added, removed func(term.Fact)) {
	for _, c := range changes {
		onlyIn(c.V, c.New, c.Old, added)
		onlyIn(c.V, c.Old, c.New, removed)
	}
}

// onlyIn emits, as facts of v, the applications of s that other lacks.
func onlyIn(v term.GVID, s, other *State, emit func(term.Fact)) {
	if s == nil || emit == nil {
		return
	}
	for _, e := range s.entries {
		if other == nil || other.find(e) < 0 {
			emit(e.fact(v))
		}
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
