package objectbase_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/term"
)

func obj(name string) term.GVID { return term.GVID{Object: term.Sym(name)} }

// employees builds a frozen base of n settled objects e0..e{n-1}.
func employees(n int) *objectbase.Base {
	b := objectbase.New()
	for i := 0; i < n; i++ {
		v := obj(fmt.Sprintf("e%d", i))
		b.EnsureObject(v.Object)
		b.Insert(term.NewFact(v, "isa", term.Sym("empl")))
		b.Insert(term.NewFact(v, "sal", term.Int(int64(100+i))))
		b.Insert(term.Fact{V: v, Method: "rate", Args: term.EncodeOIDs([]term.OID{term.Int(int64(i % 3))}), Result: term.Int(int64(i))})
	}
	return b.Freeze()
}

// withSal returns the change that sets an object's salary.
func withSal(head *objectbase.Base, name string, sal int64) objectbase.Change {
	v := obj(name)
	old := head.StateOf(v)
	ns := old.Clone()
	for r := range old.Results(term.MethodKey{Method: "sal"}) {
		ns.Remove(term.MethodKey{Method: "sal"}, r)
	}
	ns.Add(term.MethodKey{Method: "sal"}, term.Int(sal))
	return objectbase.Change{V: v, Old: old, New: ns}
}

// TestComputeWalksAllLayers: Compute used to range over the own layer of
// its arguments only, so a diff between overlay bases missed every fact
// that lives in (or is hidden from) a parent layer.
func TestComputeWalksAllLayers(t *testing.T) {
	root := employees(4)
	from := objectbase.Overlay(root, nil)
	from.Insert(term.NewFact(obj("e0"), "note", term.Sym("a")))
	from.Remove(term.NewFact(obj("e1"), "sal", term.Int(101)))
	from.Freeze()
	to := objectbase.Overlay(root, nil)
	to.Insert(term.NewFact(obj("e2"), "note", term.Sym("b")))
	to.SetState(obj("e3"), nil)
	to.Freeze()

	d := objectbase.Compute(from, to)
	wantAdded := []term.Fact{
		term.NewFact(obj("e1"), "sal", term.Int(101)), // hidden in from, inherited by to
		term.NewFact(obj("e2"), "note", term.Sym("b")),
	}
	if !reflect.DeepEqual(d.Added, wantAdded) {
		t.Errorf("Added = %v, want %v", d.Added, wantAdded)
	}
	if len(d.Removed) != 1+4 { // e0's note, and all of e3 (exists, isa, sal, rate)
		t.Errorf("Removed = %v, want e0.note and the four facts of e3", d.Removed)
	}
	replay := from.Clone()
	d.Apply(replay)
	if !replay.Equal(to) {
		t.Errorf("applying the diff to from does not yield to")
	}
	inverse := objectbase.Diff{Added: d.Removed, Removed: d.Added}
	if back := objectbase.Compute(to, from); !reflect.DeepEqual(back, inverse) {
		t.Errorf("Compute(to, from) = %v, want the inverse %v", back, inverse)
	}
}

// TestDeriveDeltaLayer: a small change yields the head's root under one
// delta layer, shares every untouched state by pointer, and chains of such
// changes never stack layers.
func TestDeriveDeltaLayer(t *testing.T) {
	root := employees(64)
	head := root
	for i := 0; i < 3; i++ {
		c := withSal(head, fmt.Sprintf("e%d", i), 1000)
		next := head.Derive([]objectbase.Change{c})
		if err := obtest.CheckDerived(head, next, []objectbase.Change{c}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if next.Parent() != root || next.Depth() != 1 {
			t.Fatalf("step %d: derived base has depth %d over %p, want one layer over the root %p", i, next.Depth(), next.Parent(), root)
		}
		if !next.Frozen() {
			t.Fatalf("step %d: derived base is not frozen", i)
		}
		if next.StateOf(obj("e40")) != root.StateOf(obj("e40")) {
			t.Errorf("step %d: untouched state was copied, not shared", i)
		}
		if next.StateOf(c.V) != c.New {
			t.Errorf("step %d: changed state is not the one handed in", i)
		}
		head = next
	}
	if !root.Has(term.NewFact(obj("e0"), "sal", term.Int(100))) {
		t.Errorf("deriving changed the root")
	}
	if got := head.Derive(nil); got != head {
		t.Errorf("Derive with no changes built a new base")
	}
}

// TestDeriveTombstones: a version that goes is hidden by the delta layer,
// not merely absent from it, and can come back.
func TestDeriveTombstones(t *testing.T) {
	root := employees(64)
	gone := objectbase.Change{V: obj("e7"), Old: root.StateOf(obj("e7"))}
	h1 := root.Derive([]objectbase.Change{gone})
	if h1.HasVersion(obj("e7")) || h1.Size() != root.Size()-4 {
		t.Fatalf("e7 survived its removal (size %d, root %d)", h1.Size(), root.Size())
	}
	if err := obtest.CheckDerived(root, h1, []objectbase.Change{gone}); err != nil {
		t.Fatal(err)
	}
	// A version neither layer knows leaves no tombstone behind.
	fresh := objectbase.NewState()
	fresh.Add(term.MethodKey{Method: term.ExistsMethod}, term.Sym("n1"))
	fresh.Add(term.MethodKey{Method: "isa"}, term.Sym("empl"))
	added := objectbase.Change{V: obj("n1"), New: fresh}
	h2 := h1.Derive([]objectbase.Change{added})
	removed := objectbase.Change{V: obj("n1"), Old: fresh}
	h3 := h2.Derive([]objectbase.Change{removed})
	if err := obtest.CheckDerived(h2, h3, []objectbase.Change{removed}); err != nil {
		t.Fatal(err)
	}
	if !h3.Equal(h1) {
		t.Errorf("adding and removing n1 did not restore the base")
	}
	back := objectbase.Change{V: obj("e7"), New: root.StateOf(obj("e7"))}
	h4 := h3.Derive([]objectbase.Change{back})
	if err := obtest.CheckDerived(h3, h4, []objectbase.Change{back}); err != nil {
		t.Fatal(err)
	}
	if !h4.Equal(root) {
		t.Errorf("restoring e7 did not restore the root's contents")
	}
}

// TestDeriveFlattens: once the delta layer would outgrow its share of the
// root — by accumulation or in one large change — Derive builds a new root
// that still shares the untouched states.
func TestDeriveFlattens(t *testing.T) {
	root := employees(64) // a delta layer holds at most 64/16 = 4 versions
	head := root
	flattened := 0
	for i := 0; i < 20; i++ {
		c := withSal(head, fmt.Sprintf("e%d", i), 2000)
		next := head.Derive([]objectbase.Change{c})
		if err := obtest.CheckDerived(head, next, []objectbase.Change{c}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if next.Depth() > 1 {
			t.Fatalf("step %d: depth %d", i, next.Depth())
		}
		if next.Depth() == 0 {
			flattened++
			if next.StateOf(obj("e50")) != root.StateOf(obj("e50")) {
				t.Errorf("step %d: flattening copied an untouched state", i)
			}
		}
		head = next
	}
	if flattened < 3 {
		t.Errorf("20 point changes on 64 objects flattened %d times, want several", flattened)
	}
	var all []objectbase.Change
	for i := 0; i < 64; i++ {
		all = append(all, withSal(head, fmt.Sprintf("e%d", i), 3000))
	}
	bulk := head.Derive(all)
	if bulk.Depth() != 0 {
		t.Errorf("a change of every object left a delta layer (depth %d)", bulk.Depth())
	}
	if err := obtest.CheckDerived(head, bulk, all); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveSharesRootIndex: heads over one root share the root's literal
// index and add only their own layer's.
func TestDeriveSharesRootIndex(t *testing.T) {
	root := employees(64)
	rootIdx := root.Index()
	h1 := root.Derive([]objectbase.Change{withSal(root, "e1", 5000)})
	h2 := h1.Derive([]objectbase.Change{withSal(h1, "e2", 5000)})
	if root.Index() != rootIdx {
		t.Errorf("the root rebuilt its index")
	}
	for _, h := range []*objectbase.Base{h1, h2} {
		hits := h.Index().VIDsWithResult("", "isa", term.Sym("empl"))
		if hits.Len() < 64 {
			t.Errorf("isa probe visits %d positions, want the root's 64 and the layer's own", hits.Len())
		}
		if err := obtest.SameAnswers(h, h.Clone().Freeze()); err != nil {
			t.Error(err)
		}
	}
	// The stale salary is gone from the probe, the new one is there.
	idx := h2.Index()
	if n := idx.VIDsWithResult("", "sal", term.Int(5000)).Len(); n != 2 {
		t.Errorf("sal -> 5000 probe visits %d positions, want 2", n)
	}
	old := idx.VIDsWithResult("", "sal", term.Int(101))
	for i := 0; i < old.Len(); i++ {
		if v, ok := old.At(i); ok {
			t.Errorf("sal -> 101 probe still yields %s", v)
		}
	}
}

// TestUnsettled: a base records at Freeze which versions the final copy
// would not leave alone; derived bases keep the list current.
func TestUnsettled(t *testing.T) {
	b := objectbase.New()
	b.EnsureObject(term.Sym("ok"))
	b.Insert(term.NewFact(obj("ok"), "m", term.Int(1)))
	b.EnsureObject(term.Sym("bare")) // nothing but exists
	b.Insert(term.NewFact(obj("noexists"), "m", term.Int(1)))
	ver := term.GVID{Object: term.Sym("ok"), Path: term.PathOf(term.Mod)}
	b.Insert(term.NewFact(ver, "m", term.Int(2)))
	b.Freeze()
	got := map[term.GVID]bool{}
	for _, v := range b.Unsettled() {
		got[v] = true
	}
	want := map[term.GVID]bool{obj("bare"): true, obj("noexists"): true, ver: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Unsettled = %v, want %v", got, want)
	}
	settled := b.StateOf(obj("noexists")).CloneFinal(term.Sym("noexists"))
	d := b.Derive([]objectbase.Change{
		{V: obj("noexists"), Old: b.StateOf(obj("noexists")), New: settled},
		{V: obj("bare"), Old: b.StateOf(obj("bare"))},
		{V: ver, Old: b.StateOf(ver)},
	})
	if u := d.Unsettled(); len(u) != 0 {
		t.Errorf("derived base still lists %v", u)
	}
	over := objectbase.Overlay(b, nil)
	over.SetState(ver, nil)
	over.Freeze()
	if u := over.Unsettled(); len(u) != 2 {
		t.Errorf("overlay hiding the version lists %v, want the two objects", u)
	}
}

// TestDiffChanges: a diff turned into changes against a base derives the
// base the diff describes.
func TestDiffChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	head := employees(48)
	for step := 0; step < 40; step++ {
		target := head.Clone()
		for i := 0; i < 1+rng.Intn(4); i++ {
			v := obj(fmt.Sprintf("e%d", rng.Intn(52))) // some beyond the base
			switch rng.Intn(3) {
			case 0:
				target.SetState(v, nil)
			case 1:
				target.EnsureObject(v.Object)
				target.Insert(term.NewFact(v, "tag", term.Int(int64(step))))
			default:
				target.EnsureObject(v.Object)
				target.Insert(term.NewFact(v, "sal", term.Int(int64(rng.Intn(5)))))
			}
		}
		d := objectbase.Compute(head, target)
		changes := d.Changes(head)
		next := head.Derive(changes)
		if !next.Equal(target) {
			t.Fatalf("step %d: Derive(d.Changes(head)) differs from the target", step)
		}
		if err := obtest.CheckDerived(head, next, changes); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		head = next
	}
}
