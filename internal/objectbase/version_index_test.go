package objectbase_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/term"
)

// The tests of the version index a new root inherits (Derive): a bulk change
// that neither adds nor empties a version re-slots the root's states and
// shares its index, any other builds a fresh one, and no base is ever
// changed by what is derived from it.

// raiseAll returns the changes that give every version of head a new salary.
func raiseAll(head *objectbase.Base, n int, sal int64) []objectbase.Change {
	changes := make([]objectbase.Change, n)
	for i := range changes {
		changes[i] = withSal(head, fmt.Sprintf("e%d", i), sal+int64(i))
	}
	return changes
}

// allocated returns the bytes fn allocates, the least of three runs.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestDeriveByteLawGuard: a Derive that changes every version of a root of n,
// with none entering or leaving, allocates the new root's slot array — 8
// bytes a version, as the allocator rounds an array of n pointers — and at
// most 1 kB besides, and reads through its predecessor's version index; so
// does the root derived from it in turn. A fresh index would cost a hash
// table entry a version (measured: 77 B).
func TestDeriveByteLawGuard(t *testing.T) {
	var sink []*objectbase.State
	for _, n := range []int{1000, 10000} {
		root := employees(n)
		root.Unsettled() // collected once per frozen base, not by Derive
		slots := allocated(func() { sink = make([]*objectbase.State, n) })
		if slots < uint64(8*n) || slots >= uint64(8*n+8192) {
			t.Fatalf("n=%d: an array of %d pointers takes %d B", n, n, slots)
		}
		head := root
		for gen := range 2 {
			changes := raiseAll(head, n, int64(1000*(gen+1)))
			var next *objectbase.Base
			got := allocated(func() { next = head.Derive(changes) })
			t.Logf("n=%d, generation %d: Derive allocates %d B (%.2f B a version; slot array %d B)", n, gen+1, got, float64(got)/float64(n), slots)
			if got > slots+1024 {
				t.Errorf("n=%d, generation %d: Derive allocates %d B, want at most the slot array's %d B + 1 kB", n, gen+1, got, slots)
			}
			if next.Parent() != nil || !next.VersionIndexSharedWith(root) {
				t.Errorf("n=%d, generation %d: depth %d, version index shared with the first root: %v; want a new root reading the same index", n, gen+1, next.Depth(), next.VersionIndexSharedWith(root))
			}
			want := head.Clone()
			objectbase.DiffChanges(changes).Apply(want)
			if !next.Equal(want) || !want.Equal(next) {
				t.Fatalf("n=%d, generation %d: the derived root does not hold the raised salaries", n, gen+1)
			}
			head = next
		}
	}
	_ = sink
}

// TestDeriveFreshIndex: a new root whose versions are not its predecessor's —
// one was added, or emptied, by a change or by the delta layer under which
// the change is made — gets a version index of its own, compacted; one whose
// delta layer and changes only rewrite versions shares the root's.
func TestDeriveFreshIndex(t *testing.T) {
	const n = 64
	root := employees(n)
	added := objectbase.NewState()
	added.Add(term.MethodKey{Method: term.ExistsMethod}, term.Sym("n1"))
	added.Add(term.MethodKey{Method: "isa"}, term.Sym("empl"))
	layered := func(extra objectbase.Change) *objectbase.Base {
		h := root.Derive([]objectbase.Change{extra})
		if h.Parent() != root {
			t.Fatal("one change of 64 versions left no delta layer")
		}
		return h
	}
	for _, c := range []struct {
		name   string
		from   *objectbase.Base
		extra  []objectbase.Change
		shared bool
	}{
		{"rewrites only", root, nil, true},
		{"adds a version", root, []objectbase.Change{{V: obj("n1"), New: added}}, false},
		{"empties a version", root, []objectbase.Change{{V: obj("e3"), Old: root.StateOf(obj("e3"))}}, false},
		{"over a layer that rewrites", layered(withSal(root, "e5", 9)), nil, true},
		{"over a layer that adds", layered(objectbase.Change{V: obj("n1"), New: added}), nil, false},
		{"over a layer that empties", layered(objectbase.Change{V: obj("e5"), Old: root.StateOf(obj("e5"))}), nil, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var changes []objectbase.Change
			skip := map[term.GVID]bool{}
			for _, x := range c.extra {
				skip[x.V] = true
			}
			for i := 0; i < n; i++ {
				if v := obj(fmt.Sprintf("e%d", i)); !skip[v] && c.from.StateOf(v) != nil {
					changes = append(changes, withSal(c.from, fmt.Sprintf("e%d", i), 500))
				}
			}
			changes = append(changes, c.extra...)
			next := c.from.Derive(changes)
			if next.Parent() != nil {
				t.Fatalf("a change of every version left depth %d", next.Depth())
			}
			if err := obtest.CheckDerived(c.from, next, changes); err != nil {
				t.Fatal(err)
			}
			if got := next.VersionIndexSharedWith(root); got != c.shared {
				t.Fatalf("version index shared with the root: %v, want %v", got, c.shared)
			}
			if versions, slots := next.SlotCount(); !c.shared && versions != slots {
				t.Errorf("the fresh index lists %d versions over %d slots, want it compacted", versions, slots)
			}
			if err := obtest.SameAnswers(next, next.Clone().Freeze()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDeriveModel drives seeded random Derives — rewrites, additions and
// removals, a few at a time or of most of the base, from a bare root and
// from a root under a delta layer, each from any base derived so far — and
// after every step holds every base returned so far against the copy built
// from its facts when it was returned. A Derive that wrote through an index
// or slot array it shares would change a base already returned.
func TestDeriveModel(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(17))
	bases := []*objectbase.Base{employees(n)}
	copies := []*objectbase.Base{objectbase.FromFacts(bases[0].Facts())}
	var shared, fresh, layers, fromLayer int
	for step := 0; step < 240; step++ {
		from := bases[len(bases)-1]
		if rng.Intn(3) == 0 {
			from = bases[rng.Intn(len(bases))]
		}
		k := 1 + rng.Intn(2) // stays in a delta layer for a while
		if rng.Intn(2) == 0 {
			k = n/2 + rng.Intn(n) // a new root at once
		}
		rewriteOnly := rng.Intn(2) == 0
		taken := map[term.GVID]bool{}
		var changes []objectbase.Change
		for len(changes) < k {
			name := fmt.Sprintf("e%d", rng.Intn(n+8)) // e48..e55 start absent
			v := obj(name)
			if taken[v] {
				if len(taken) >= n+8 {
					break
				}
				continue
			}
			taken[v] = true
			old := from.StateOf(v)
			switch {
			case old != nil && (rewriteOnly || rng.Intn(4) != 0):
				changes = append(changes, withSal(from, name, int64(step*100+len(changes))))
			case rewriteOnly:
			case old != nil:
				changes = append(changes, objectbase.Change{V: v, Old: old})
			default:
				ns := objectbase.NewState()
				ns.Add(term.MethodKey{Method: term.ExistsMethod}, v.Object)
				ns.Add(term.MethodKey{Method: "sal"}, term.Int(int64(step)))
				changes = append(changes, objectbase.Change{V: v, New: ns})
			}
		}
		next := from.Derive(changes)
		if err := obtest.CheckDerived(from, next, changes); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		root := from
		if from.Parent() != nil {
			root = from.Parent()
		}
		switch {
		case next.Parent() != nil:
			layers++
		case next.VersionIndexSharedWith(root):
			shared++
		default:
			fresh++
		}
		if next.Parent() == nil && from.Parent() != nil {
			fromLayer++
		}
		bases = append(bases, next)
		copies = append(copies, objectbase.FromFacts(next.Facts()))
		for i, b := range bases {
			if !b.Equal(copies[i]) {
				t.Fatalf("step %d: base %d of %d no longer holds the facts it was returned with", step, i, len(bases))
			}
		}
	}
	t.Logf("%d new roots shared their predecessor's version index, %d built their own, %d from a root under a delta layer; %d delta layers", shared, fresh, fromLayer, layers)
	if shared < 20 || fresh < 20 || fromLayer < 20 || layers < 20 {
		t.Errorf("%d shared, %d fresh, %d from a layer, %d layers: want at least 20 of each", shared, fresh, fromLayer, layers)
	}
}

// TestSharedVersionIndexBesideReaders: readers of two roots that share one
// version index — a root and the root a raise of every salary derived from
// it — keep reading while third roots are derived from both, some sharing the
// index in turn and some building their own. Every reader must see its
// base's contents throughout. Run under -race.
func TestSharedVersionIndexBesideReaders(t *testing.T) {
	const n = 128
	root := employees(n)
	second := root.Derive(raiseAll(root, n, 100))
	if !second.VersionIndexSharedWith(root) {
		t.Fatal("a raise of every salary did not share the root's version index")
	}
	rootFlat, secondFlat := root.Clone().Freeze(), second.Clone().Freeze()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for _, pair := range [][2]*objectbase.Base{{root, rootFlat}, {second, secondFlat}} {
					if !pair[0].Equal(pair[1]) {
						t.Error("a reader saw a root change under it")
						return
					}
					if err := obtest.SameAnswers(pair[0], pair[1]); err != nil {
						t.Errorf("reader: %v", err)
						return
					}
				}
			}
		}()
	}
	for round := 0; round < 8; round++ {
		from := []*objectbase.Base{root, second}[round%2]
		changes := raiseAll(from, n, int64(1000*round))
		if round%4 >= 2 { // and one version goes: an index of its own
			changes[round] = objectbase.Change{V: changes[round].V, Old: changes[round].Old}
		}
		third := from.Derive(changes)
		if third.VersionIndexSharedWith(root) != (round%4 < 2) {
			t.Fatalf("round %d: version index shared: %v", round, third.VersionIndexSharedWith(root))
		}
		if err := obtest.CheckDerived(from, third, changes); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	wg.Wait()
}
