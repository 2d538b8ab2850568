// Package obtest holds the oracle that tests in several packages hold a
// derived object base against: whatever shortcut produced it — shared
// states, a delta layer, a layered index, a diff taken from the touched
// set — it must answer exactly like a base built the long way round.
package obtest

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// CheckDerived verifies that derived, obtained from head through the given
// changes, is indistinguishable from a flat deep copy of itself: the diff
// of the changes equals objectbase.Compute(head, derived), and every scan
// and index probe answers as on derived.Clone().
func CheckDerived(head, derived *objectbase.Base, changes []objectbase.Change) error {
	if !derived.Frozen() {
		return fmt.Errorf("derived base is not frozen")
	}
	got, want := objectbase.DiffChanges(changes), objectbase.Compute(head, derived)
	if !sameFacts(got.Added, want.Added) || !sameFacts(got.Removed, want.Removed) {
		return fmt.Errorf("diff of the changes is not Compute(head, derived):\nchanges: +%v -%v\ncompute: +%v -%v",
			got.Added, got.Removed, want.Added, want.Removed)
	}
	replayed := head.Clone()
	got.Apply(replayed)
	if !replayed.Equal(derived) {
		return fmt.Errorf("applying the diff to head does not yield derived (%d vs %d facts)", replayed.Size(), derived.Size())
	}
	return SameAnswers(derived, derived.Clone().Freeze())
}

// SameAnswers verifies that two bases holding the same facts also answer
// every (path, method) scan, any-path scan, literal-index probe and
// statistics request alike.
func SameAnswers(a, b *objectbase.Base) error {
	if !a.Equal(b) || !b.Equal(a) {
		return fmt.Errorf("bases differ: %d vs %d facts", a.Size(), b.Size())
	}
	if !reflect.DeepEqual(a.Versions(), b.Versions()) {
		return fmt.Errorf("Versions differ: %v vs %v", a.Versions(), b.Versions())
	}
	if sa, sb := objectbase.CollectStats(a), objectbase.CollectStats(b); !reflect.DeepEqual(sa, sb) {
		return fmt.Errorf("CollectStats differ: %+v vs %+v", sa, sb)
	}
	ia, ib := a.Index(), b.Index()
	type pm struct {
		path   term.Path
		method string
	}
	scanned := map[pm]bool{}
	for _, f := range b.Facts() {
		k := pm{f.V.Path, f.Method}
		if !scanned[k] {
			scanned[k] = true
			if err := SameScans(a, b, f.V.Path, f.Method); err != nil {
				return err
			}
		}
		ha, hb := live(ia.VIDsWithResult(f.V.Path, f.Method, f.Result)), live(ib.VIDsWithResult(f.V.Path, f.Method, f.Result))
		if !sameVIDs(ha, hb) {
			return fmt.Errorf("VIDsWithResult(%q, %s, %s): %v vs %v", f.V.Path, f.Method, f.Result, ha, hb)
		}
		if a0, ok := f.Args.First(); ok {
			ha, hb = live(ia.VIDsWithArg(f.V.Path, f.Method, a0)), live(ib.VIDsWithArg(f.V.Path, f.Method, a0))
			if !sameVIDs(ha, hb) {
				return fmt.Errorf("VIDsWithArg(%q, %s, %s): %v vs %v", f.V.Path, f.Method, a0, ha, hb)
			}
		}
	}
	return nil
}

// SameScans verifies that the two bases list the same versions for one
// (path, method) pair — on the pair's scan, on the any-path scan of the
// method, and, between two root bases, whose counts are exact, on the
// planner's cardinality estimate. SameAnswers asks it for every pair the
// bases hold facts of; a caller that knows of pairs they no longer hold asks
// for those.
func SameScans(a, b *objectbase.Base, path term.Path, method string) error {
	va, vb := slices.Collect(a.VIDsWith(path, method)), slices.Collect(b.VIDsWith(path, method))
	if !sameVIDs(va, vb) {
		return fmt.Errorf("VIDsWith(%q, %s): %v vs %v", path, method, va, vb)
	}
	if a.Parent() == nil && b.Parent() == nil {
		if na, nb := a.CountVIDsWith(path, method), b.CountVIDsWith(path, method); na != nb || na != len(va) {
			return fmt.Errorf("CountVIDsWith(%q, %s): %d vs %d, the scan yields %d", path, method, na, nb, len(va))
		}
	}
	va, vb = slices.Collect(a.VIDsWithMethod(method)), slices.Collect(b.VIDsWithMethod(method))
	if !sameVIDs(va, vb) {
		return fmt.Errorf("VIDsWithMethod(%s): %v vs %v", method, va, vb)
	}
	return nil
}

// live materializes the VIDs an index probe yields.
func live(h objectbase.Hits) []term.GVID {
	var out []term.GVID
	for i := 0; i < h.Len(); i++ {
		if v, ok := h.At(i); ok {
			out = append(out, v)
		}
	}
	return out
}

// sameVIDs compares two VID lists as sets; a duplicate on either side is a
// difference (every scan must yield a version once).
func sameVIDs(a, b []term.GVID) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Compare(a[j]) < 0 })
	sort.Slice(b, func(i, j int) bool { return b[i].Compare(b[j]) < 0 })
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] == a[i-1]) {
			return false
		}
	}
	return true
}

func sameFacts(a, b []term.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FactSet returns the facts of b as a plain set: the form the spec evaluator
// (internal/spec) reads a base in and hands its results out in.
func FactSet(b *objectbase.Base) map[term.Fact]bool {
	set := make(map[term.Fact]bool, b.Size())
	for _, f := range b.Facts() {
		set[f] = true
	}
	return set
}

// DiffSets names an element that only one of two sets holds — facts of two
// bases, or the updates two evaluators fired — or returns nil.
func DiffSets[K comparable](what string, got, want map[K]bool) error {
	for _, set := range []map[K]bool{got, want} {
		for k := range set {
			if got[k] != want[k] {
				return fmt.Errorf("%s differ on %v (got: %v, want: %v)", what, k, got[k], want[k])
			}
		}
	}
	return nil
}
