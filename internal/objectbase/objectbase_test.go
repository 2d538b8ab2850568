package objectbase

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"verlog/internal/term"
)

func fact(obj string, path term.Path, m string, r term.OID) term.Fact {
	return term.Fact{V: term.GVID{Object: term.Sym(obj), Path: path}, Method: m, Result: r}
}

func TestInsertRemoveHas(t *testing.T) {
	b := New()
	f := fact("phil", "", "sal", term.Int(4000))
	if b.Has(f) || b.Size() != 0 {
		t.Fatalf("empty base has facts")
	}
	if !b.Insert(f) {
		t.Fatalf("Insert new returned false")
	}
	if b.Insert(f) {
		t.Errorf("duplicate Insert returned true")
	}
	if !b.Has(f) || b.Size() != 1 {
		t.Errorf("Has/Size after insert")
	}
	if !b.Remove(f) {
		t.Fatalf("Remove returned false")
	}
	if b.Remove(f) {
		t.Errorf("double Remove returned true")
	}
	if b.Has(f) || b.Size() != 0 {
		t.Errorf("fact survived removal")
	}
	if b.HasVersion(f.V) {
		t.Errorf("empty version reported present")
	}
}

func TestSetValuedMethods(t *testing.T) {
	b := New()
	v := term.GV(term.Sym("alice"))
	b.Insert(term.NewFact(v, "parents", term.Sym("bob")))
	b.Insert(term.NewFact(v, "parents", term.Sym("carol")))
	var results []string
	for r := range b.Results(v, term.MethodKey{Method: "parents"}) {
		results = append(results, r.String())
	}
	sort.Strings(results)
	if fmt.Sprint(results) != "[bob carol]" {
		t.Errorf("results = %v", results)
	}
}

func TestExistsAndVStar(t *testing.T) {
	b := New()
	o := term.Sym("o")
	b.EnsureObject(o)
	if !b.Exists(term.GV(o)) {
		t.Fatalf("EnsureObject did not create exists")
	}
	// No version of mod(o) yet: v* of del(mod(o)) is o itself.
	deep := term.GV(o, term.Mod, term.Del)
	vs, ok := b.VStar(deep)
	if !ok || vs != term.GV(o) {
		t.Errorf("VStar = %v, %v", vs, ok)
	}
	// Create mod(o) with an exists note: v* becomes mod(o).
	b.Insert(term.NewFact(term.GV(o, term.Mod), term.ExistsMethod, o))
	vs, ok = b.VStar(deep)
	if !ok || vs != term.GV(o, term.Mod) {
		t.Errorf("VStar after mod = %v, %v", vs, ok)
	}
	// v* of an unknown object does not exist.
	if _, ok := b.VStar(term.GV(term.Sym("ghost"), term.Ins)); ok {
		t.Errorf("VStar of ghost succeeded")
	}
}

func TestForEachVIDWith(t *testing.T) {
	b := New()
	b.Insert(fact("a", term.PathOf(term.Mod), "sal", term.Int(1)))
	b.Insert(fact("b", term.PathOf(term.Mod), "sal", term.Int(2)))
	b.Insert(fact("c", term.PathOf(term.Del), "sal", term.Int(3)))
	b.Insert(fact("d", term.PathOf(term.Mod), "age", term.Int(4)))
	var got []string
	for v := range b.VIDsWith(term.PathOf(term.Mod), "sal") {
		got = append(got, v.Object.String())
	}
	sort.Strings(got)
	if fmt.Sprint(got) != "[a b]" {
		t.Errorf("VIDsWith = %v", got)
	}
	// Removing the last sal fact of a drops it from the index.
	b.Remove(fact("a", term.PathOf(term.Mod), "sal", term.Int(1)))
	got = nil
	for v := range b.VIDsWith(term.PathOf(term.Mod), "sal") {
		got = append(got, v.Object.String())
	}
	if fmt.Sprint(got) != "[b]" {
		t.Errorf("after removal = %v", got)
	}
}

func TestSetState(t *testing.T) {
	b := New()
	v := term.GV(term.Sym("x"), term.Mod)
	st := NewState()
	st.Add(term.MethodKey{Method: "m"}, term.Int(1))
	st.Add(term.MethodKey{Method: "k"}, term.Int(2))
	if !b.SetState(v, st) {
		t.Fatalf("SetState reported no change")
	}
	if b.Size() != 2 {
		t.Errorf("size = %d", b.Size())
	}
	// Identical state: no change.
	if b.SetState(v, st.Clone()) {
		t.Errorf("identical SetState reported change")
	}
	// Replace with a different state: index entries for dropped methods go.
	st2 := NewState()
	st2.Add(term.MethodKey{Method: "m"}, term.Int(9))
	if !b.SetState(v, st2) {
		t.Fatalf("replacement reported no change")
	}
	if b.Has(fact("x", term.PathOf(term.Mod), "k", term.Int(2))) {
		t.Errorf("old fact survived replacement")
	}
	for range b.VIDsWith(term.PathOf(term.Mod), "k") {
		t.Errorf("index kept dropped method")
	}
	// Nil/empty state removes the version.
	if !b.SetState(v, nil) {
		t.Fatalf("nil SetState reported no change")
	}
	if b.HasVersion(v) || b.Size() != 0 {
		t.Errorf("version survived nil SetState")
	}
	if b.SetState(v, nil) {
		t.Errorf("removing absent version reported change")
	}
}

func TestCloneIndependence(t *testing.T) {
	b := New()
	b.Insert(fact("a", "", "m", term.Int(1)))
	c := b.Clone()
	c.Insert(fact("a", "", "m", term.Int(2)))
	c.Remove(fact("a", "", "m", term.Int(1)))
	if !b.Has(fact("a", "", "m", term.Int(1))) || b.Has(fact("a", "", "m", term.Int(2))) {
		t.Errorf("clone mutation leaked into original")
	}
	if !b.Equal(b.Clone()) {
		t.Errorf("clone not equal to original")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(), New()
	if !a.Equal(b) {
		t.Fatalf("empty bases differ")
	}
	a.Insert(fact("x", "", "m", term.Int(1)))
	if a.Equal(b) {
		t.Fatalf("different bases equal")
	}
	b.Insert(fact("x", "", "m", term.Int(1)))
	if !a.Equal(b) {
		t.Fatalf("same bases differ")
	}
	b.Insert(fact("x", "", "m", term.Int(2)))
	b.Remove(fact("x", "", "m", term.Int(1)))
	if a.Equal(b) {
		t.Errorf("same size, different facts reported equal")
	}
}

func TestObjectsAndVersions(t *testing.T) {
	b := New()
	b.EnsureObject(term.Sym("b"))
	b.EnsureObject(term.Sym("a"))
	b.Insert(fact("c", term.PathOf(term.Mod), "m", term.Int(1)))
	objs := b.Objects()
	if fmt.Sprint(objs) != "[a b]" {
		t.Errorf("Objects = %v", objs)
	}
	vs := b.VersionsOf(term.Sym("c"))
	if len(vs) != 1 || vs[0] != term.GV(term.Sym("c"), term.Mod) {
		t.Errorf("VersionsOf = %v", vs)
	}
	grouped := b.VersionsByObject()
	if len(grouped) != 3 || len(grouped[term.Sym("c")]) != 1 {
		t.Errorf("VersionsByObject = %v", grouped)
	}
}

func TestStateOnlyExists(t *testing.T) {
	st := NewState()
	if !st.OnlyExists() { // vacuously
		t.Errorf("empty state not OnlyExists")
	}
	st.Add(term.MethodKey{Method: term.ExistsMethod}, term.Sym("o"))
	if !st.OnlyExists() {
		t.Errorf("exists-only state not OnlyExists")
	}
	st.Add(term.MethodKey{Method: "m"}, term.Int(1))
	if st.OnlyExists() {
		t.Errorf("state with payload reported OnlyExists")
	}
}

func TestFromFactsSeedsExists(t *testing.T) {
	b := FromFacts([]term.Fact{
		fact("a", "", "m", term.Int(1)),
		fact("b", term.PathOf(term.Mod), "m", term.Int(2)), // version fact: no seed
	})
	if !b.Exists(term.GV(term.Sym("a"))) {
		t.Errorf("object a not seeded")
	}
	if b.Exists(term.GV(term.Sym("b"))) {
		t.Errorf("version-only object b wrongly seeded")
	}
}

func TestFactsSortedDeterministic(t *testing.T) {
	b := New()
	b.Insert(fact("b", "", "m", term.Int(2)))
	b.Insert(fact("a", term.PathOf(term.Mod), "m", term.Int(3)))
	b.Insert(fact("a", "", "m", term.Int(1)))
	fs := b.Facts()
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Compare(fs[i]) >= 0 {
			t.Errorf("Facts not sorted: %v before %v", fs[i-1], fs[i])
		}
	}
}

// TestDiffProperties: computing and applying diffs round-trips, and the
// inverse diff undoes it. Property-checked over random fact sets.
func TestDiffProperties(t *testing.T) {
	mk := func(sel []byte) *Base {
		b := New()
		objs := []string{"a", "b", "c"}
		methods := []string{"m", "k"}
		for i, s := range sel {
			if i >= 24 {
				break
			}
			if s%2 == 0 {
				continue
			}
			obj := objs[i%3]
			meth := methods[(i/3)%2]
			path := term.Path("")
			if (i/6)%2 == 1 {
				path = term.PathOf(term.Mod)
			}
			b.Insert(fact(obj, path, meth, term.Int(int64(i/12))))
		}
		return b
	}
	f := func(s1, s2 []byte) bool {
		from, to := mk(s1), mk(s2)
		d := Compute(from, to)
		redo := from.Clone()
		d.Apply(redo)
		if !redo.Equal(to) {
			return false
		}
		Diff{Added: d.Removed, Removed: d.Added}.Apply(redo) // the inverse
		return redo.Equal(from)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffEmpty(t *testing.T) {
	b := New()
	b.Insert(fact("a", "", "m", term.Int(1)))
	d := Compute(b, b.Clone())
	if !d.Empty() {
		t.Errorf("self diff not empty: %+v", d)
	}
}

func TestForEachFactOfAndOfMethod(t *testing.T) {
	b := New()
	v := term.GV(term.Sym("x"))
	b.Insert(term.Fact{V: v, Method: "rate", Args: term.EncodeOIDs([]term.OID{term.Int(1)}), Result: term.Int(10)})
	b.Insert(term.Fact{V: v, Method: "rate", Args: term.EncodeOIDs([]term.OID{term.Int(2)}), Result: term.Int(20)})
	b.Insert(term.NewFact(v, "other", term.Int(0)))
	count := 0
	for range b.OfMethod(v, "rate") {
		count++
	}
	if count != 2 {
		t.Errorf("OfMethod count = %d", count)
	}
	if total := len(slices.Collect(b.FactsOf(v))); total != 3 {
		t.Errorf("FactsOf count = %d", total)
	}
	// Unknown version: nothing.
	for range b.FactsOf(term.GV(term.Sym("ghost"))) {
		t.Errorf("ghost fact")
	}
}

func TestCollectStats(t *testing.T) {
	b := New()
	b.EnsureObject(term.Sym("a"))
	b.Insert(fact("a", "", "m", term.Int(1)))
	b.Insert(fact("a", "", "m", term.Int(2)))
	b.Insert(fact("a", term.PathOf(term.Mod), "m", term.Int(3)))
	b.Insert(fact("b", "", "k", term.Int(4)))
	s := CollectStats(b)
	// Objects: a (ensured) and b (path-less fact); versions add mod(a).
	if s.Objects != 2 || s.Versions != 3 || s.MaxDepth != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Facts != b.Size() {
		t.Errorf("facts = %d, want %d", s.Facts, b.Size())
	}
	// Method m: 3 facts across 2 versions; first in the ordering.
	if len(s.Methods) == 0 || s.Methods[0].Method != "m" || s.Methods[0].Facts != 3 || s.Methods[0].Versions != 2 {
		t.Errorf("methods = %+v", s.Methods)
	}
	if out := s.String(); !strings.Contains(out, "max depth 1") {
		t.Errorf("String = %s", out)
	}
}
